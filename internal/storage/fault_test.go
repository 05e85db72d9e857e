package storage

import (
	"errors"
	"strings"
	"testing"
)

// The scriptable fault plans must (a) expose a typed error matched by
// errors.Is, (b) distinguish reads from writes, (c) target a single heap
// file by page-owner tag, and (d) honor transient vs. persistent lifetimes.

func newFaultWorld(t *testing.T) (*Disk, *BufferPool, *HeapFile, *HeapFile) {
	t.Helper()
	clock := NewClock()
	disk := NewDisk(clock)
	pool := NewPool(disk, 2) // tiny: nearly every access does physical I/O
	// FORCE policy: every mutation is a physical write, so write rules fire
	// deterministically at the mutating operation.
	a := NewForcedHeapFile(pool, "A")
	b := NewForcedHeapFile(pool, "B")
	return disk, pool, a, b
}

func TestErrInjectedFaultIsTyped(t *testing.T) {
	disk, _, a, _ := newFaultWorld(t)
	disk.SetFaultPlan(FaultPlan{Rules: []FaultRule{{After: 0}}})
	_, err := a.Insert([]byte("x"))
	if err == nil {
		t.Fatal("insert succeeded on a failing disk")
	}
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("errors.Is(ErrInjectedFault) = false for %v", err)
	}
	// The historical message survives for log readers.
	if !strings.Contains(err.Error(), "injected disk failure") {
		t.Fatalf("error %q lost the historical message", err)
	}
	disk.ClearFaults()
	if _, err := a.Insert([]byte("x")); err != nil {
		t.Fatalf("insert after ClearFaults: %v", err)
	}
}

func TestFaultRuleReadVsWrite(t *testing.T) {
	disk, _, a, _ := newFaultWorld(t)
	rid, err := a.Insert([]byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	disk.SetFaultPlan(FaultPlan{Rules: []FaultRule{{Op: FaultRead}}})
	// Writes still succeed (the insert below lands on the hinted resident
	// page, no physical read needed).
	if _, err := a.Insert([]byte("w")); err != nil {
		t.Fatalf("write failed under a read-only fault rule: %v", err)
	}
	// Force the page out so the next Read needs a physical read.
	disk.ClearFaults()
	var spill []RID
	for i := 0; i < 4; i++ {
		r, err := a.Insert(make([]byte, PageSize/2))
		if err != nil {
			t.Fatal(err)
		}
		spill = append(spill, r)
	}
	_ = spill
	disk.SetFaultPlan(FaultPlan{Rules: []FaultRule{{Op: FaultRead}}})
	if _, err := a.Read(rid); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("read under fail-read rule: %v", err)
	}
}

func TestFaultRulePerFileTargeting(t *testing.T) {
	disk, _, a, b := newFaultWorld(t)
	disk.SetFaultPlan(FaultPlan{Rules: []FaultRule{{Op: FaultAny, File: "B"}}})
	if _, err := a.Insert([]byte("a")); err != nil {
		t.Fatalf("file A failed under a file-B rule: %v", err)
	}
	if _, err := b.Insert([]byte("b")); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("file B insert: %v", err)
	}
	if got := disk.FaultsInjected(); got != 1 {
		t.Fatalf("FaultsInjected = %d, want 1", got)
	}
}

func TestFaultRuleTransientExpires(t *testing.T) {
	disk, _, a, _ := newFaultWorld(t)
	disk.SetFaultPlan(FaultPlan{Rules: []FaultRule{{Op: FaultWrite, Count: 2}}})
	fails := 0
	for i := 0; i < 10; i++ {
		if _, err := a.Insert([]byte("x")); err != nil {
			if !errors.Is(err, ErrInjectedFault) {
				t.Fatalf("unexpected error: %v", err)
			}
			fails++
		}
	}
	if fails != 2 {
		t.Fatalf("transient rule injected %d failures, want 2", fails)
	}
	if disk.FaultsArmed() {
		t.Fatal("expired transient rule still reports armed")
	}
}

func TestFaultRuleAfterBudget(t *testing.T) {
	disk, _, a, _ := newFaultWorld(t)
	// Fill one page so inserts stay on the resident hinted page: each
	// write-through insert is exactly one physical write.
	if _, err := a.Insert([]byte("seed")); err != nil {
		t.Fatal(err)
	}
	forced := NewForcedHeapFile(a.pool, "F")
	if _, err := forced.Insert([]byte("seed")); err != nil {
		t.Fatal(err)
	}
	disk.SetFaultPlan(FaultPlan{Rules: []FaultRule{{Op: FaultWrite, File: "F", After: 2}}})
	ok := 0
	var firstErr error
	for i := 0; i < 6 && firstErr == nil; i++ {
		if _, err := forced.Insert([]byte("x")); err != nil {
			firstErr = err
		} else {
			ok++
		}
	}
	if firstErr == nil {
		t.Fatal("after-budget rule never fired")
	}
	if !errors.Is(firstErr, ErrInjectedFault) {
		t.Fatalf("unexpected error: %v", firstErr)
	}
	if ok != 2 {
		t.Fatalf("%d inserts succeeded before the fault, want 2 (After budget)", ok)
	}
}

func TestPageOwnerTags(t *testing.T) {
	_, pool, a, _ := newFaultWorld(t)
	rid, err := a.Insert([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if owner := pool.disk.PageOwner(rid.Page); owner != "A" {
		t.Fatalf("PageOwner = %q, want A", owner)
	}
}
