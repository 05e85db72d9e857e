package schema

// FingerprintUncached computes the fingerprint without the cache.
func (s *Schema) FingerprintUncached() uint64 { return s.fingerprint() }
