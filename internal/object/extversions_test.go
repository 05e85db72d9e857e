package object

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gomdb/internal/mvcc"
)

// TestExtensionVersionedOracle is the extent undo log's oracle. Seeded
// random epochs of one to four creates, deletes and relocating Puts run over
// four types (Tag a subtype of Label, Points a collection type), each epoch
// ending in a publish that records every type's live extension. Readers pin
// at random moments — between epochs and in the middle of one — and hold the
// pin across later epochs. After every mutation, ExtensionVersioned(t, v) for
// each held pin must equal the extension recorded when v was published,
// order included. Once every pin is released, one publish must leave no
// capture behind.
func TestExtensionVersionedOracle(t *testing.T) {
	types := []string{"Point", "Label", "Tag", "Points"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, reg := testManager(t)
		tag := NewTupleType("Tag", AttrDef{Name: "Color", Type: "string"})
		tag.Super = "Label"
		for _, ty := range []*Type{
			NewTupleType("Point", AttrDef{Name: "X", Type: "float"}),
			NewTupleType("Label", AttrDef{Name: "Text", Type: "string"}),
			tag,
			NewSetType("Points", "Point"),
		} {
			if err := reg.Register(ty); err != nil {
				t.Fatal(err)
			}
		}
		st := mvcc.NewState()
		m.SetMVCC(st)

		// recorded[v][tn] is Extension(tn) as published at version v.
		recorded := map[uint64]map[string][]OID{}
		record := func() {
			ext := map[string][]OID{}
			for _, tn := range types {
				ext[tn] = m.Extension(tn)
			}
			recorded[st.Stable()] = ext
		}
		record()
		type pin struct {
			ver     uint64
			release func()
		}
		var pins []pin
		maybePin := func() {
			if rng.Intn(6) == 0 {
				v, release := st.Pin()
				pins = append(pins, pin{v, release})
			}
			if len(pins) > 0 && rng.Intn(8) == 0 {
				i := rng.Intn(len(pins))
				pins[i].release()
				pins = slices.Delete(pins, i, i+1)
			}
		}
		check := func(epoch int) {
			t.Helper()
			for _, p := range pins {
				for _, tn := range types {
					got, want := m.ExtensionVersioned(tn, p.ver), recorded[p.ver][tn]
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d epoch %d: %s at v%d (stable v%d) = %v, published %v",
							seed, epoch, tn, p.ver, st.Stable(), got, want)
					}
				}
			}
		}

		var live []OID
		creates, deletes, moves := 0, 0, 0
		for epoch := 0; epoch < 500; epoch++ {
			for k := 1 + rng.Intn(4); k > 0; k-- {
				switch r := rng.Intn(10); {
				case r < 4 || len(live) < 8:
					var oid OID
					var err error
					switch rng.Intn(4) {
					case 0:
						oid, err = m.Create("Point", []Value{Float(rng.Float64())})
					case 1:
						oid, err = m.Create("Label", []Value{String_("l")})
					case 2:
						oid, err = m.Create("Tag", []Value{String_("t"), String_("red")})
					default:
						oid, err = m.CreateCollection("Points", nil)
					}
					if err != nil {
						t.Fatal(err)
					}
					live = append(live, oid)
					creates++
				case r < 7:
					i := rng.Intn(len(live))
					if err := m.Delete(live[i]); err != nil {
						t.Fatal(err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					deletes++
				default:
					oid := live[rng.Intn(len(live))]
					o, err := m.Get(oid)
					if err != nil {
						t.Fatal(err)
					}
					if o.Type != "Label" && o.Type != "Tag" {
						continue
					}
					before, _ := m.RIDOf(oid)
					o.Attrs[0] = String_(o.Attrs[0].S + strings.Repeat("x", 100+rng.Intn(400)))
					if err := m.Put(o); err != nil {
						t.Fatal(err)
					}
					if after, _ := m.RIDOf(oid); after != before {
						moves++
					}
				}
				maybePin()
				check(epoch)
			}
			m.ReclaimVersions(st.Publish())
			record()
			maybePin()
			check(epoch)
		}
		if creates == 0 || deletes == 0 || moves == 0 {
			t.Fatalf("seed %d: %d creates, %d deletes, %d relocating Puts: the stream must exercise all three",
				seed, creates, deletes, moves)
		}
		for _, p := range pins {
			p.release()
		}
		m.ReclaimVersions(st.Publish())
		if n := m.VersionCaptureCount(); n != 0 {
			t.Fatalf("seed %d: %d captures survive the publish after the last pin", seed, n)
		}
	}
}
