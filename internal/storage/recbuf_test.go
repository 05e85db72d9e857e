package storage

import (
	"bytes"
	"testing"
)

// TestHeapDoesNotKeepRecordBuffers: Insert and Update copy the record they
// are handed into the page and keep no reference to it, so a writer may build
// every record in one reused buffer. Each write below is followed by
// scribbling over the buffer it was handed; every record must still read
// back as written — after an insert, an in-place update, an update that
// grows the record on its page, and one that relocates it.
func TestHeapDoesNotKeepRecordBuffers(t *testing.T) {
	pool, _ := newPool(16)
	h := NewHeapFile(pool, "objects")
	buf := make([]byte, 0, PageSize)
	want := map[RID][]byte{}
	// write stores a record of n bytes of b through buf, then scribbles.
	write := func(rid RID, n int, b byte, update bool) RID {
		t.Helper()
		buf = append(buf[:0], bytes.Repeat([]byte{b}, n)...)
		var err error
		if update {
			var moved RID
			if moved, err = h.Update(rid, buf); moved != rid {
				delete(want, rid)
			}
			rid = moved
		} else {
			rid, err = h.Insert(buf)
		}
		if err != nil {
			t.Fatal(err)
		}
		want[rid] = bytes.Repeat([]byte{b}, n)
		for i := range buf[:cap(buf)] {
			buf[:cap(buf)][i] = 0xEE
		}
		for r, w := range want {
			got, err := h.Read(r)
			if err != nil || !bytes.Equal(got, w) {
				t.Fatalf("record %v reads %x (%v) after the buffer was reused, want %x", r, got, err, w)
			}
		}
		return rid
	}
	var rids []RID
	for i := 0; i < 20; i++ {
		rids = append(rids, write(RID{}, 100, byte(i), false))
	}
	write(rids[0], 60, 0xA0, true)            // shrinks in place
	write(rids[1], 300, 0xA1, true)           // grows on its page
	moved := write(rids[2], 3500, 0xA2, true) // relocates
	if moved == rids[2] {
		t.Fatal("the 3500-byte update did not relocate")
	}
}
