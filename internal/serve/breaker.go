package serve

import (
	"time"
)

// tenantBreaker is the per-tenant storage-fault circuit breaker. When a
// tenant's jobs keep failing on storage faults (a broken state volume,
// a full disk the degrade paths could not absorb), re-admitting more of
// that tenant's jobs just burns workers on a disk that cannot serve
// them. After breakerThreshold consecutive storage-fault jobs the
// breaker opens: the tenant's submits are shed with 503 and an honest
// Retry-After equal to the remaining breakerCooldown. One probe job is
// admitted after the cooldown; a clean job closes the breaker, another
// storage-fault job reopens it immediately.
type tenantBreaker struct {
	// consecutive counts the tenant's storage-fault jobs since its last
	// clean one.
	consecutive int
	// openUntil is when the cooldown ends (zero when closed).
	openUntil time.Time
}

const (
	// breakerThreshold is how many consecutive jobs of one tenant must
	// end with storage-fault failures before its breaker opens.
	breakerThreshold = 3
	// breakerCooldown is how long an open breaker sheds a tenant's
	// submits before admitting a probe job again, measured on the
	// server's injected Now clock.
	breakerCooldown = 30 * time.Second
)

// breakerWaitLocked returns the remaining cooldown for the tenant and
// whether its breaker is currently open. Caller holds mu.
func (s *Server) breakerWaitLocked(tenant string) (time.Duration, bool) {
	b, ok := s.breakers[tenant]
	if !ok || b.openUntil.IsZero() {
		return 0, false
	}
	wait := b.openUntil.Sub(s.now())
	if wait <= 0 {
		// Cooldown over: half-open. The next submit is the probe; the
		// job outcome decides whether the breaker closes or reopens.
		b.openUntil = time.Time{}
		return 0, false
	}
	return wait, true
}

// recordJobStorageOutcomeLocked feeds one terminal job into its
// tenant's breaker: storageFault says whether the job ended with at
// least one storage-fault failure. Caller holds mu.
func (s *Server) recordJobStorageOutcomeLocked(tenant string, storageFault bool) {
	if !storageFault {
		if b, ok := s.breakers[tenant]; ok {
			b.consecutive = 0
			b.openUntil = time.Time{}
		}
		return
	}
	b, ok := s.breakers[tenant]
	if !ok {
		b = &tenantBreaker{}
		s.breakers[tenant] = b
	}
	b.consecutive++
	if b.consecutive >= breakerThreshold {
		b.openUntil = s.now().Add(breakerCooldown)
		s.metrics.BreakerOpens++
		s.logf("tenant %s: circuit breaker open for %s after %d consecutive storage-fault job(s)",
			tenant, breakerCooldown, b.consecutive)
	}
}
