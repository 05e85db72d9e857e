package schema

import (
	"errors"

	"gomdb/internal/object"
	"gomdb/internal/storage"
)

// ErrReadOnlyView is returned when an evaluation running in a read-only
// snapshot engine (SnapshotAt) attempts an elementary update or a hooked
// public operation: a pinned MVCC reader must neither change objects nor
// cascade into GMR maintenance.
var ErrReadOnlyView = errors.New("schema: mutation attempted on a read-only snapshot view")

// SnapshotAt returns a read-only evaluation clone bound to MVCC version ver.
// It refuses mutations with ErrReadOnlyView, its object reads resolve
// through the versioned overlays (safe concurrently with a writer), and its
// simulated charges land on the caller-supplied throwaway clock, so a pinned
// reader never perturbs the engine's clock. The interceptor is cleared; the
// caller installs a snapshot-aware one.
//
// The clone is built field-by-field rather than by copying the struct: Engine
// embeds an atomic counter that must not be copied.
func (en *Engine) SnapshotAt(ver uint64, clock *storage.Clock) *Engine {
	return &Engine{
		Sch:      en.Sch,
		Objs:     en.Objs,
		Clock:    clock,
		Hooks:    en.Hooks,
		snapshot: true,
		ver:      ver,
	}
}

// TypeOf returns the dynamic type of oid through the engine's evaluation read
// path. A normal engine decodes only the record's type tag, at the charge of
// a full read; a snapshot clone reads the object as of its pinned version.
// Callers outside the package (the query executor) use it so the same code
// runs against live and pinned-snapshot engines.
func (en *Engine) TypeOf(oid object.OID) (string, error) {
	if !en.snapshot {
		return en.Objs.TypeOf(oid)
	}
	o, err := en.getObject(oid)
	if err != nil {
		return "", err
	}
	return o.Type, nil
}

// ExtensionOf returns the extension of typeName through the engine's read
// path: a snapshot clone reads it as of its pinned version, a normal engine
// reads the live extent directly.
func (en *Engine) ExtensionOf(typeName string) []object.OID {
	if en.snapshot {
		return en.Objs.ExtensionVersioned(typeName, en.ver)
	}
	return en.Objs.Extension(typeName)
}

// getObject is the single object-fetch point of the evaluation path. A normal
// engine reads through the buffer pool, charging the simulated clock; a
// snapshot clone reads the object as of its pinned version.
func (en *Engine) getObject(oid object.OID) (*object.Obj, error) {
	if en.snapshot {
		return en.Objs.GetVersioned(oid, en.ver)
	}
	return en.Objs.Get(oid)
}
