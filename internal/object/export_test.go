package object

import "gomdb/internal/mvcc"

// SetMVCC replaces the manager's version state with st, for tests that
// publish and pin on a state of their own.
func (m *Manager) SetMVCC(st *mvcc.State) { m.st = st }
