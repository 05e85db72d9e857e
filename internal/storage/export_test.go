package storage

import "gomdb/internal/mvcc"

// SetMVCC replaces the pool's version state with st and empties its page
// overlay, for tests that publish and pin on a state of their own.
func (bp *BufferPool) SetMVCC(st *mvcc.State) { bp.pv = &pageVersions{st: st} }
