package storage

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Scriptable fault injection. The simulated disk can be armed with a fault
// plan — a list of rules that make selected physical I/Os fail — so tests and
// the simulation harness (internal/sim) can verify that storage errors
// surface cleanly through every layer: the engine must either propagate a
// typed error or leave all invariants intact, never a partially-applied GMR
// mutation that wedges the system.
//
// Rules distinguish reads from writes, fail after the Nth matching I/O, can
// target a single heap file (pages are tagged with the name of the file that
// allocated them), and are either transient (fail a fixed number of times,
// then disarm) or persistent (fail until the plan is cleared).
//
// Snapshot reads (Disk.readSnapshot / BufferPool.ReadSnapshot) deliberately
// bypass fault injection: they model reading already-resident state, charge
// nothing, and serve MVCC readers and audits, which must observe the state a
// fault left behind rather than fail alongside it.

// ErrInjectedFault is the typed error every injected disk failure wraps;
// tests and the simulator match it with errors.Is instead of string
// comparison.
var ErrInjectedFault = errors.New("storage: injected disk failure")

// FaultOp selects which physical I/O direction a fault rule applies to.
type FaultOp uint8

const (
	// FaultAny matches both reads and writes.
	FaultAny FaultOp = iota
	// FaultRead matches physical page reads only.
	FaultRead
	// FaultWrite matches physical page writes only.
	FaultWrite
	// FaultTornWrite matches durable data-file page writes during a
	// checkpoint apply: when it fires, the page store writes only the first
	// half of the page record (simulating a power loss mid-sector-train) and
	// reports a simulated crash. It never matches simulated in-memory I/O,
	// and FaultAny does not include it — tearing is requested explicitly.
	FaultTornWrite
)

func (op FaultOp) String() string {
	switch op {
	case FaultRead:
		return "read"
	case FaultWrite:
		return "write"
	case FaultTornWrite:
		return "torn-write"
	}
	return "any"
}

func (op FaultOp) matches(actual FaultOp) bool {
	if op == FaultTornWrite || actual == FaultTornWrite {
		return op == actual
	}
	return op == FaultAny || op == actual
}

// FaultRule makes matching physical I/Os fail. A rule observes every
// matching I/O: the first After of them succeed, every one from then on
// fails — Count times for a transient rule, indefinitely for a persistent
// one (Count == 0).
type FaultRule struct {
	// Op restricts the rule to reads or writes (FaultAny matches both).
	Op FaultOp
	// File, when non-empty, restricts the rule to pages allocated by heap
	// files whose name starts with this prefix ("RRR", "GMR:", "IDX:",
	// "objects"). Pages not owned by any heap file never match a non-empty
	// File.
	File string
	// After is the number of matching I/Os that succeed before the rule
	// starts failing.
	After int
	// Count is the number of failures a transient rule injects before
	// disarming itself; 0 makes the rule persistent until ClearFaults.
	Count int
}

func (r FaultRule) String() string {
	file := r.File
	if file == "" {
		file = "*"
	}
	life := "persistent"
	if r.Count > 0 {
		life = fmt.Sprintf("x%d", r.Count)
	}
	return fmt.Sprintf("fail-%s(file=%s after=%d %s)", r.Op, file, r.After, life)
}

// FaultPlan is a script of fault rules armed together.
type FaultPlan struct {
	Rules []FaultRule
}

func (p FaultPlan) String() string {
	parts := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		parts[i] = r.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// faultRule is the armed runtime state of one FaultRule.
type faultRule struct {
	FaultRule
	remaining int // matching I/Os left before the rule starts failing
	fired     int // failures injected so far
}

func (r *faultRule) expired() bool { return r.Count > 0 && r.fired >= r.Count }

// faultState is the disk's fault-injection state: the armed rules plus the
// page-owner tags per-file targeting matches against. It has its own mutex —
// physical I/O is serialized under the buffer pool's miss lock, but plans are
// armed and cleared from test code that does not hold it.
type faultState struct {
	mu     sync.Mutex
	rules  []*faultRule
	owners map[PageID]string
	// injected counts the failures injected since the last ClearFaults;
	// tests use it to verify a plan actually fired.
	injected int
}

// SetFaultPlan arms a fault plan, replacing any previous plan. An empty plan
// disarms injection.
func (d *Disk) SetFaultPlan(p FaultPlan) {
	d.faults.mu.Lock()
	defer d.faults.mu.Unlock()
	d.faults.rules = d.faults.rules[:0]
	for _, r := range p.Rules {
		d.faults.rules = append(d.faults.rules, &faultRule{FaultRule: r, remaining: r.After})
	}
	d.faults.injected = 0
}

// ClearFaults disarms every fault rule.
func (d *Disk) ClearFaults() {
	d.faults.mu.Lock()
	defer d.faults.mu.Unlock()
	d.faults.rules = d.faults.rules[:0]
	d.faults.injected = 0
}

// FaultsInjected returns the number of failures injected since the current
// plan was armed.
func (d *Disk) FaultsInjected() int {
	d.faults.mu.Lock()
	defer d.faults.mu.Unlock()
	return d.faults.injected
}

// FaultsArmed reports whether any non-expired fault rule is armed.
func (d *Disk) FaultsArmed() bool {
	d.faults.mu.Lock()
	defer d.faults.mu.Unlock()
	for _, r := range d.faults.rules {
		if !r.expired() {
			return true
		}
	}
	return false
}

// tagOwner records which heap file allocated page id, for per-file fault
// targeting.
func (d *Disk) tagOwner(id PageID, owner string) {
	if owner == "" {
		return
	}
	d.faults.mu.Lock()
	d.faults.owners[id] = owner
	d.faults.mu.Unlock()
}

// PageOwner returns the name of the heap file that allocated page id ("" if
// untagged); used by diagnostics and tests.
func (d *Disk) PageOwner(id PageID) string {
	d.faults.mu.Lock()
	defer d.faults.mu.Unlock()
	return d.faults.owners[id]
}

// CheckTornWrite consults the armed FaultTornWrite rules for one durable
// data-file page write and reports whether the write should be torn, through
// the same rule matcher as checkFault. The page store's checkpoint apply
// calls it per page.
func (d *Disk) CheckTornWrite(id PageID) bool {
	d.faults.mu.Lock()
	defer d.faults.mu.Unlock()
	_, fired := d.faults.fire(FaultTornWrite, id)
	return fired
}

// checkFault consults the armed fault rules for one physical I/O and returns
// the injected failure, if any.
func (d *Disk) checkFault(op FaultOp, id PageID) error {
	d.faults.mu.Lock()
	defer d.faults.mu.Unlock()
	owner, fired := d.faults.fire(op, id)
	if !fired {
		return nil
	}
	if owner == "" {
		owner = "<untagged>"
	}
	return fmt.Errorf("%w: %s of page %d (%s)", ErrInjectedFault, op, id, owner)
}

// fire runs one I/O of kind op on page id past the armed rules and reports
// the page's owner tag and whether a rule fired. Every rule observes every
// I/O it matches — by kind, and by File prefix against the owner — so
// independent rules count down their After budgets concurrently; the first
// rule that has exhausted its budget fires, and the firing counts as an
// injected fault. Caller holds mu.
func (f *faultState) fire(op FaultOp, id PageID) (owner string, fired bool) {
	if len(f.rules) == 0 {
		return "", false
	}
	owner = f.owners[id]
	var failing *faultRule
	for _, r := range f.rules {
		if r.expired() || !r.Op.matches(op) {
			continue
		}
		if r.File != "" && !strings.HasPrefix(owner, r.File) {
			continue
		}
		if r.remaining > 0 {
			r.remaining--
			continue
		}
		if failing == nil {
			failing = r
		}
	}
	if failing == nil {
		return owner, false
	}
	failing.fired++
	f.injected++
	return owner, true
}
