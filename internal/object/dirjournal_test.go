package object

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// TestDirJournalReplayMatchesExport is the journal's defining property: at
// any checkpoint, the last snapshot with the deltas since replayed over it is
// the directory ExportDirectory reads off the live manager — every entry and
// every extension in its exact order. The op stream mixes creates of three
// types, Puts that grow a record past its page (a move), deletes (swap
// removal reorders the extension) and whole-heap relocations, and checkpoints
// at random distances, so both delta and snapshot checkpoints occur.
func TestDirJournalReplayMatchesExport(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, reg := testManager(t)
		for _, ty := range []*Type{
			NewTupleType("Point", AttrDef{Name: "X", Type: "float"}),
			NewTupleType("Label", AttrDef{Name: "Text", Type: "string"}),
		} {
			if err := reg.Register(ty); err != nil {
				t.Fatal(err)
			}
		}
		if err := reg.Register(NewSetType("Points", "Point")); err != nil {
			t.Fatal(err)
		}
		m.EnableDirJournal()

		var live []OID
		var snapshot []byte
		var deltas [][]byte
		wantOps, snapshots, deltaCkpts, moves := 0, 0, 0, 0
		checkpoint := func() {
			payload, isSnapshot := m.DirCheckpoint()
			if isSnapshot {
				snapshot, deltas, wantOps = payload, nil, 0
				snapshots++
			} else {
				wantOps += m.journal.ops
				if len(payload) > 0 {
					deltas = append(deltas, append([]byte(nil), payload...))
					deltaCkpts++
				}
			}
			m.DirCheckpointDone(isSnapshot)

			restored, _ := testManager(t)
			restored.Reg = reg
			restored.EnableDirJournal()
			nextOID, _ := m.DirectoryHeader()
			ops, err := restored.RestoreDirectory(m.heap, nextOID, snapshot, deltas)
			if err != nil {
				t.Fatalf("seed %d: restore: %v", seed, err)
			}
			if ops != wantOps || restored.journal.sinceSnapshot != wantOps {
				t.Fatalf("seed %d: replayed %d ops (journal resumes at %d), want %d",
					seed, ops, restored.journal.sinceSnapshot, wantOps)
			}
			if got, want := restored.ExportDirectory(), m.ExportDirectory(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: snapshot + %d deltas replay to\n%+v\nlive directory is\n%+v", seed, len(deltas), got, want)
			}
			if msgs := restored.AuditDirectory(); len(msgs) != 0 {
				t.Fatalf("seed %d: restored directory audits dirty: %v", seed, msgs)
			}
		}

		for step := 0; step < 1500; step++ {
			switch r := rng.Intn(100); {
			case r < 40 || len(live) < 10:
				var oid OID
				var err error
				switch rng.Intn(3) {
				case 0:
					oid, err = m.Create("Point", []Value{Float(rng.Float64())})
				case 1:
					oid, err = m.Create("Label", []Value{String_("l")})
				default:
					oid, err = m.CreateCollection("Points", nil)
				}
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, oid)
			case r < 65:
				// Grow a Label until its page cannot hold it any more.
				oid := live[rng.Intn(len(live))]
				o, err := m.Get(oid)
				if err != nil {
					t.Fatal(err)
				}
				if o.Type != "Label" {
					continue
				}
				before, _ := m.RIDOf(oid)
				o.Attrs[0] = String_(o.Attrs[0].S + strings.Repeat("x", 200+rng.Intn(600)))
				if err := m.Put(o); err != nil {
					t.Fatal(err)
				}
				if after, _ := m.RIDOf(oid); after != before {
					moves++
				}
			case r < 85:
				i := rng.Intn(len(live))
				if err := m.Delete(live[i]); err != nil {
					t.Fatal(err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case r < 87:
				order := m.AllOIDs()
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				if _, err := m.Relocate(order); err != nil {
					t.Fatal(err)
				}
			default:
				checkpoint()
			}
		}
		checkpoint()
		if snapshots == 0 || deltaCkpts == 0 || moves == 0 {
			t.Fatalf("seed %d: %d snapshot checkpoints, %d delta checkpoints, %d growing Puts that moved: the stream must exercise all three",
				seed, snapshots, deltaCkpts, moves)
		}
	}
}

// A manager with no durable store attached journals nothing.
func TestDirJournalOffWithoutStore(t *testing.T) {
	m, _ := relocateFixture(t)
	if m.journal != nil {
		t.Fatal("an in-memory manager has a directory journal")
	}
}

// Malformed directory payloads must fail cleanly: no panic, no huge
// allocation, and the manager left as it was.
func TestRestoreDirectoryRejectsCorruptPayloads(t *testing.T) {
	m, oids := relocateFixture(t)
	good := m.ExportDirectory().Snapshot()
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	var del dirJournal
	del.delete(oids[0], "Point")
	var dup dirJournal
	dup.create(oids[0], "Point", m.rids[oids[0]])
	var mv dirJournal
	mv.move(OID(1<<40), m.rids[oids[0]])
	twice := m.ExportDirectory()
	twice.Extents = append(twice.Extents, ExtentDir{Type: "Label", OIDs: oids[:1]})
	cases := map[string]struct {
		snapshot []byte
		deltas   [][]byte
	}{
		"truncated snapshot":            {snapshot: good[:len(good)/2]},
		"stray bytes after snapshot":    {snapshot: append(append([]byte(nil), good...), 0)},
		"hostile entry count":           {snapshot: huge},
		"unknown op":                    {snapshot: good, deltas: [][]byte{{9, 1}}},
		"truncated op":                  {snapshot: good, deltas: [][]byte{dup.enc.Buf[:3]}},
		"create of a live OID":          {snapshot: good, deltas: [][]byte{dup.enc.Buf}},
		"move of an unknown OID":        {snapshot: good, deltas: [][]byte{mv.enc.Buf}},
		"delete twice":                  {snapshot: good, deltas: [][]byte{del.enc.Buf, del.enc.Buf}},
		"entries do not match the heap": {snapshot: good, deltas: [][]byte{del.enc.Buf}},
		"OID in two extensions":         {snapshot: twice.Snapshot()},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			before := m.ExportDirectory()
			if _, err := m.RestoreDirectory(m.heap, before.NextOID, tc.snapshot, tc.deltas); err == nil {
				t.Fatal("restore accepted the payload")
			}
			if !reflect.DeepEqual(m.ExportDirectory(), before) {
				t.Fatal("a refused restore changed the manager")
			}
		})
	}
}

// FuzzRestoreDirectory feeds arbitrary snapshot and delta payloads to the
// directory decoders RestoreDirectory runs. None may panic or allocate more
// than a fixed multiple of the input: every count is bounded by the bytes
// left. A payload pair they accept must decode to a directory in which every
// extension member has a directory entry, sits in one extension once, and
// is indexed at its position. The committed corpus in
// testdata/fuzz/FuzzRestoreDirectory holds payloads of the shapes
// TestDirJournalReplayMatchesExport and
// TestRestoreDirectoryRejectsCorruptPayloads build.
func FuzzRestoreDirectory(f *testing.F) {
	m, oids := relocateFixture(f)
	var j dirJournal
	j.create(OID(500), "Point", m.rids[oids[0]])
	j.move(oids[1], m.rids[oids[2]])
	j.delete(oids[3], "Point")
	f.Add(m.ExportDirectory().Snapshot(), j.enc.Buf)
	f.Fuzz(func(t *testing.T, snapshot, delta []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rids, extents, err := decodeSnapshot(snapshot)
		if err == nil {
			_, err = replayDelta(rids, extents, delta)
		}
		runtime.ReadMemStats(&after)
		if n, budget := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+512*(len(snapshot)+len(delta))); n > budget {
			t.Fatalf("decoding %d+%d bytes allocated %d bytes, budget %d", len(snapshot), len(delta), n, budget)
		}
		if err != nil {
			return
		}
		listed := map[OID]string{}
		for tn, ext := range extents {
			if len(ext.pos) != len(ext.order) {
				t.Fatalf("extension of %q: %d members, %d indexed", tn, len(ext.order), len(ext.pos))
			}
			for i, oid := range ext.order {
				if _, ok := rids[oid]; !ok {
					t.Fatalf("extension of %q lists %v, which has no directory entry", tn, oid)
				}
				if other, dup := listed[oid]; dup {
					t.Fatalf("%v is listed by the extensions of %q and %q", oid, other, tn)
				}
				listed[oid] = tn
				if ext.pos[oid] != i {
					t.Fatalf("extension of %q: %v at %d is indexed at %d", tn, oid, i, ext.pos[oid])
				}
			}
		}
	})
}
