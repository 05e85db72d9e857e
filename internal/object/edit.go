package object

import (
	"encoding/binary"
	"fmt"
)

// The write half of the record path: an update edits its record's bytes.
// The splice functions below build a record's new bytes from its old ones —
// the unchanged prefix and suffix copied around the edited field — into a
// caller's buffer, so an update neither decodes the object nor allocates its
// record. What they write is byte for byte what appendObj writes for the
// decoded-then-mutated object, for every record appendObj wrote; the
// decode → mutate → encode path is their oracle (edit_test.go). They walk
// the whole record the way decodeObj reads it, so they fail exactly where
// Get would, and drop bytes past the ObjDepFct set as a re-encode does.

// skipValues advances over a count-prefixed run of values.
func (d *Decoder) skipValues() {
	for n := d.Count(1); n > 0 && d.err == nil; n-- {
		d.skipValue()
	}
}

// skipDepFcts advances over the record's ObjDepFct set.
func (d *Decoder) skipDepFcts() {
	for n := d.Count(1); n > 0 && d.err == nil; n-- {
		d.RawStr()
	}
}

// spliceAttr appends to dst the object record rec with attribute i set to v.
func spliceAttr(dst, rec []byte, i int, v Value) ([]byte, error) {
	d := NewDecoder(rec)
	d.RawStr()
	n := d.Count(1)
	if d.err == nil && (i < 0 || i >= n) {
		d.Fail("object: attribute %d of %d", i, n)
	}
	for k := 0; k < i && d.err == nil; k++ {
		d.skipValue()
	}
	start := d.off
	d.skipValue()
	end := d.off
	for k := i + 1; k < n && d.err == nil; k++ {
		d.skipValue()
	}
	d.skipValues()
	d.skipDepFcts()
	if d.err != nil {
		return dst, d.err
	}
	dst = append(dst, rec[:start]...)
	dst = AppendValue(dst, v)
	return append(dst, rec[end:d.off]...), nil
}

// spliceDepFct appends to dst the object record rec with fid added to (add)
// or removed from its ObjDepFct set. It reports false, leaving dst as it
// was, when the set already holds (add) or lacks (remove) fid. fid's place
// is sort.SearchStrings's over the stored ids, as Obj.AddDepFct and
// Obj.RemoveDepFct find it.
func spliceDepFct(dst, rec []byte, fid string, add bool) ([]byte, bool, error) {
	d := NewDecoder(rec)
	d.RawStr()
	d.skipValues()
	d.skipValues()
	head := d.off
	n := d.Count(1)
	// ids[k] is the offset of the k-th id's length prefix; ids[n] is the
	// end of the set.
	var stack [16]int
	ids := stack[:0]
	for k := 0; k < n && d.err == nil; k++ {
		ids = append(ids, d.off)
		d.RawStr()
	}
	if d.err != nil {
		return dst, false, d.err
	}
	ids = append(ids, d.off)
	lo, hi := 0, n
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if string(idAt(rec, ids[h])) < fid {
			lo = h + 1
		} else {
			hi = h
		}
	}
	if present := lo < n && string(idAt(rec, ids[lo])) == fid; present == add {
		return dst, false, nil
	}
	dst = append(dst, rec[:head]...)
	if add {
		dst = binary.AppendUvarint(dst, uint64(n+1))
		dst = append(dst, rec[ids[0]:ids[lo]]...)
		dst = appendStr(dst, fid)
		return append(dst, rec[ids[lo]:ids[n]]...), true, nil
	}
	dst = binary.AppendUvarint(dst, uint64(n-1))
	dst = append(dst, rec[ids[0]:ids[lo]]...)
	return append(dst, rec[ids[lo+1]:ids[n]]...), true, nil
}

// idAt returns the bytes of the length-prefixed id at off, which a walk of
// rec has already bounded.
func idAt(rec []byte, off int) []byte {
	d := Decoder{buf: rec, off: off}
	return d.RawStr()
}

// edit is the write path's one primitive. It reads oid's record through
// view, charged as Get is; splice builds the new record from it in the
// manager's write buffer and reports whether there is one; write stores it,
// charged as Put is. A splice that reports no change writes nothing.
func (m *Manager) edit(oid OID, splice func(dst, rec []byte) ([]byte, bool, error)) (bool, error) {
	changed := false
	err := m.view(oid, func(rec []byte) (err error) {
		m.wbuf, changed, err = splice(m.wbuf[:0], rec)
		return err
	})
	if err != nil || !changed {
		return false, err
	}
	return true, m.write(oid, m.wbuf)
}

// SetAttr is the elementary update oid.set_attr(v) on a tuple object. It
// reads the record as Get does and resolves attr in the object's type. When
// hooked reports that the type has no hooks for the update, SetAttr edits
// attr's value in the record, writing as Put does, and returns an AttrEdit
// that holds nothing. Otherwise it writes nothing and decodes nothing: the
// returned AttrEdit holds the receiver's view for the caller's hooks, its
// ObjDepFct set read into deps[:0], and the record it was read from, and its
// Store writes the update. hooked may be nil.
func (m *Manager) SetAttr(oid OID, attr string, v Value, deps []string, hooked func(typ string) bool) (AttrEdit, error) {
	e := AttrEdit{m: m, v: v}
	_, err := m.edit(oid, func(dst, rec []byte) ([]byte, bool, error) {
		d := NewDecoder(rec)
		typ := m.Reg.internName(d.RawStr())
		if d.err != nil {
			return dst, false, d.err
		}
		e.i = m.AttrIndex(typ, attr)
		if e.i < 0 {
			return dst, false, noAttr(typ, attr)
		}
		if hooked != nil && hooked(typ) {
			r, err := m.recvOf(oid, rec, deps)
			if err == nil {
				e.Recv, e.rec = r, m.hold(rec)
			}
			return dst, false, err
		}
		dst, err := spliceAttr(dst, rec, e.i, v)
		return dst, err == nil, err
	})
	return e, err
}

// hold copies rec into a spare held buffer.
func (m *Manager) hold(rec []byte) []byte {
	var b []byte
	if n := len(m.held); n > 0 {
		b, m.held = m.held[n-1], m.held[:n-1]
	}
	return append(b, rec...)
}

// An AttrEdit is a hooked attribute update between its read and its store.
// Recv is the receiver's view in its pre-update state, read once for the
// caller's hooks; an attribute update leaves it unchanged, so it serves the
// After hooks too. rec holds the record Recv was read from, in a buffer the
// manager lends until Store or Release gives it back.
type AttrEdit struct {
	Recv Recv
	m    *Manager
	rec  []byte
	i    int
	v    Value
}

// Hooked reports whether the edit waits for its Store: SetAttr found hooks
// for the update and wrote nothing.
func (e *AttrEdit) Hooked() bool { return e.rec != nil }

// Store writes the update as an edit of the record Recv was read from,
// charged as Put of the mutated object is charged and writing the bytes
// that Put writes, and releases the record. The hooks that ran since SetAttr
// must have left the record as they found it.
func (e *AttrEdit) Store() error {
	m, oid := e.m, e.Recv.OID
	var err error
	m.wbuf, err = spliceAttr(m.wbuf[:0], e.rec, e.i, e.v)
	e.Release()
	if err != nil {
		return err
	}
	if _, ok := m.rids[oid]; !ok {
		return fmt.Errorf("object: put of deleted object %v", oid)
	}
	return m.write(oid, m.wbuf)
}

// Release gives the held record back to the manager without storing, for
// an update whose Before hooks failed. Store releases it itself; releasing
// twice is harmless.
func (e *AttrEdit) Release() {
	if e.rec != nil {
		e.m.held = append(e.m.held, e.rec[:0])
		e.rec = nil
	}
}

// AddDepFct inserts fid into the ObjDepFct set of oid's record; it reports
// whether fid was new. An object that already carries fid is read, as Get
// reads it, and not written.
func (m *Manager) AddDepFct(oid OID, fid string) (bool, error) {
	return m.edit(oid, func(dst, rec []byte) ([]byte, bool, error) {
		return spliceDepFct(dst, rec, fid, true)
	})
}

// RemoveDepFct removes fid from the ObjDepFct set of oid's record; it
// reports whether fid was present. An object without fid is read and not
// written.
func (m *Manager) RemoveDepFct(oid OID, fid string) (bool, error) {
	return m.edit(oid, func(dst, rec []byte) ([]byte, bool, error) {
		return spliceDepFct(dst, rec, fid, false)
	})
}
