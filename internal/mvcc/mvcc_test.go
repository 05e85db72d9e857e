package mvcc

import (
	"testing"
	"time"
)

// stillBlocked waits briefly and reports whether done has not fired. A
// blocked call never fires, so a false result is a real failure; a true one
// is only as strong as the wait, which is why the tests also check that the
// call completes once it is unblocked.
func stillBlocked(done <-chan struct{}) bool {
	select {
	case <-done:
		return false
	case <-time.After(20 * time.Millisecond):
		return true
	}
}

// mustFire fails the test unless done fires within a generous deadline.
func mustFire(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not complete", what)
	}
}

func TestPublishFloor(t *testing.T) {
	s := NewState()
	if got := s.Publish(); got != 1 {
		t.Fatalf("unpinned floor = %d, want the new stable version 1", got)
	}
	v1, release1 := s.Pin()
	if got := s.Publish(); got != v1 {
		t.Fatalf("floor = %d, want pinned version %d", got, v1)
	}
	v2, release2 := s.Pin()
	if v2 != 2 {
		t.Fatalf("second pin at %d, want 2", v2)
	}
	s.Publish()
	if got := s.Publish(); got != v1 {
		t.Fatalf("floor with pins {%d,%d} = %d, want the smallest, %d", v1, v2, got, v1)
	}
	release1()
	if got := s.Publish(); got != v2 {
		t.Fatalf("floor after releasing %d = %d, want %d", v1, got, v2)
	}
	release2()
	if got, stable := s.Publish(), s.Stable(); got != stable || stable != 6 {
		t.Fatalf("floor after releasing all = %d at stable %d, want 6 at 6", got, stable)
	}
}

func TestReleaseTwiceUnpinsOnce(t *testing.T) {
	s := NewState()
	v, releaseA := s.Pin()
	_, releaseB := s.Pin()
	releaseA()
	releaseA()
	if got := s.Active(); got != 1 {
		t.Fatalf("active = %d after a double release, want 1", got)
	}
	if got := s.PinnedVersions(); len(got) != 1 || got[0] != v {
		t.Fatalf("pinned versions = %v, want [%d]", got, v)
	}
	releaseB()
	releaseB()
	if got := s.Active(); got != 0 {
		t.Fatalf("active = %d, want 0", got)
	}
	if got := s.PinnedVersions(); len(got) != 0 {
		t.Fatalf("pinned versions = %v, want none", got)
	}
}

func TestBarrierWaitsForActivePins(t *testing.T) {
	s := NewState()
	_, release := s.Pin()
	up := make(chan struct{})
	go func() {
		s.BeginBarrier()
		close(up)
	}()
	if !stillBlocked(up) {
		t.Fatal("BeginBarrier returned while a pin was active")
	}
	release()
	mustFire(t, up, "BeginBarrier after the last release")
	s.EndBarrier()
}

func TestBarrierBlocksPinsUntilEnd(t *testing.T) {
	s := NewState()
	s.BeginBarrier()
	pinned := make(chan struct{})
	var got uint64
	go func() {
		v, release := s.Pin()
		got = v
		release()
		close(pinned)
	}()
	if !stillBlocked(pinned) {
		t.Fatal("Pin returned while the barrier was up")
	}
	// The barrier holder publishes before lifting the barrier, so the woken
	// pinner must see the new version.
	s.Publish()
	s.EndBarrier()
	mustFire(t, pinned, "Pin after EndBarrier")
	if got != 1 {
		t.Fatalf("woken pinner pinned %d, want 1", got)
	}
	if n := s.Active(); n != 0 {
		t.Fatalf("active = %d, want 0", n)
	}
}
