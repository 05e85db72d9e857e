package schema

import (
	"errors"

	"gomdb/internal/object"
	"gomdb/internal/storage"
)

// ErrShadowMutation is returned when an evaluation running in a shadow engine
// attempts an elementary update or a hooked public operation. Shadow
// evaluation is strictly read-only: the deferred-rematerialization workers use
// it to compute GMR results in parallel, and any mutation (or hook cascade,
// which mutates GMR state) would break the charge-determinism argument. The
// caller reacts by falling back to a serial, fully charged rematerialization.
var ErrShadowMutation = errors.New("schema: mutation attempted during shadow evaluation")

// shadowTrace records, in evaluation order, every object the shadow
// evaluation fetched. The deferred flush replays the trace through the
// charged object-read path afterwards, so the simulated cost of a parallel
// drain is identical to a serial one (see DESIGN.md, "Update path").
type shadowTrace struct {
	oids []object.OID

	// versioned marks an MVCC snapshot clone (SnapshotAt): object reads are
	// served at the pinned version through the copy-on-write overlays, and
	// no trace is recorded (nothing replays it — snapshot reads are
	// charge-free by design and stay so).
	versioned bool
	ver       uint64
}

// Shadow returns a read-only evaluation clone of the engine. The clone shares
// the schema, object manager, clock, hook table, and interceptor with its
// parent but has private tracking state, so multiple shadows may evaluate
// concurrently (under the no-concurrent-writer contract of
// storage.BufferPool.ReadSnapshot). Object reads go through the charge-free
// snapshot path and are recorded in the shadow trace; elementary updates
// return ErrShadowMutation.
//
// The clone is built field-by-field rather than by copying the struct: Engine
// embeds an atomic counter that must not be copied.
func (en *Engine) Shadow() *Engine {
	return &Engine{
		Sch:         en.Sch,
		Objs:        en.Objs,
		Clock:       en.Clock,
		Hooks:       en.Hooks,
		interceptor: en.interceptor,
		shadow:      &shadowTrace{},
	}
}

// SnapshotAt returns a read-only evaluation clone bound to MVCC version
// ver. Like Shadow it refuses mutations with ErrShadowMutation, but its
// object reads resolve through the versioned overlays (safe concurrently
// with a writer) and its simulated charges land on the caller-supplied
// throwaway clock, so a pinned reader never perturbs the engine's clock.
// The interceptor is cleared; the caller installs a snapshot-aware one.
func (en *Engine) SnapshotAt(ver uint64, clock *storage.Clock) *Engine {
	return &Engine{
		Sch:    en.Sch,
		Objs:   en.Objs,
		Clock:  clock,
		Hooks:  en.Hooks,
		shadow: &shadowTrace{versioned: true, ver: ver},
	}
}

// SnapshotVersion returns the pinned MVCC version of a SnapshotAt clone and
// whether the engine is one.
func (en *Engine) SnapshotVersion() (uint64, bool) {
	if en.shadow == nil || !en.shadow.versioned {
		return 0, false
	}
	return en.shadow.ver, true
}

// IsShadow reports whether the engine is a shadow clone.
func (en *Engine) IsShadow() bool { return en.shadow != nil }

// ShadowTrace returns the ordered object accesses recorded so far. Only
// meaningful on engines returned by Shadow.
func (en *Engine) ShadowTrace() []object.OID {
	if en.shadow == nil {
		return nil
	}
	return en.shadow.oids
}

// TraceObject appends an object access to the shadow trace without reading
// the object. The deferred drain uses it to mirror charged reads the manager
// performs outside evaluation proper (dynamic-dispatch receiver reads).
func (en *Engine) TraceObject(oid object.OID) {
	if en.shadow != nil {
		en.shadow.oids = append(en.shadow.oids, oid)
	}
}

// TypeOf returns the dynamic type of oid through the engine's evaluation read
// path. A normal engine decodes only the record's type tag, at the charge of
// a full read; a shadow or snapshot clone fetches the object as getObject
// does, so the access is traced for replay. Callers outside the package (the
// query executor) use it so the same code runs against live and
// pinned-snapshot engines.
func (en *Engine) TypeOf(oid object.OID) (string, error) {
	if en.shadow == nil {
		return en.Objs.TypeOf(oid)
	}
	o, err := en.getObject(oid)
	if err != nil {
		return "", err
	}
	return o.Type, nil
}

// ExtensionOf returns the extension of typeName through the engine's read
// path: a versioned snapshot clone reads it as of its pinned version, any
// other engine reads the live extent directly.
func (en *Engine) ExtensionOf(typeName string) []object.OID {
	if en.shadow != nil && en.shadow.versioned {
		return en.Objs.ExtensionVersioned(typeName, en.shadow.ver)
	}
	return en.Objs.Extension(typeName)
}

// getObject is the single object-fetch point of the evaluation path. A normal
// engine reads through the buffer pool, charging the simulated clock; a
// shadow engine reads a charge-free snapshot and records the access for later
// replay.
func (en *Engine) getObject(oid object.OID) (*object.Obj, error) {
	if en.shadow == nil {
		return en.Objs.Get(oid)
	}
	if en.shadow.versioned {
		return en.Objs.GetVersioned(oid, en.shadow.ver)
	}
	o, err := en.Objs.GetSnapshot(oid)
	if err != nil {
		return nil, err
	}
	en.shadow.oids = append(en.shadow.oids, oid)
	return o, nil
}
