package gateway

import (
	"math"
	"sync"
	"time"
)

// quotas is the edge admission controller: one token bucket per tenant,
// refilled at rate tokens/second up to burst. A request costs one token;
// a tenant out of tokens is rejected with how long until the next token.
// rate <= 0 disables admission control entirely.
type quotas struct {
	mu      sync.Mutex
	rate    float64
	burst   float64
	tenants map[string]*bucket
	now     func() time.Time
	// fullUntil is, while the table is full, the earliest instant one of
	// its buckets can have refilled, so that new tenants arriving at a full
	// table rescan it once per refill rather than once each.
	fullUntil time.Time
}

// maxTenants caps the bucket table. Without a cap it gains a bucket for
// every distinct tenant header ever seen. A bucket that has refilled to
// burst carries no state, so a new tenant that finds the table full drops
// every such bucket; if none has refilled, the new tenant is refused until
// the first one does. Quotas trust the header: they bound honest tenants,
// not a client that rotates it. It is a variable only so tests can lower
// it.
var maxTenants = 1 << 16

// bucket is one tenant's token balance at its last refill instant.
type bucket struct {
	tokens float64
	last   time.Time
}

func newQuotas(rate, burst float64, now func() time.Time) *quotas {
	return &quotas{rate: rate, burst: burst, tenants: make(map[string]*bucket), now: now}
}

// allow spends one token from tenant's bucket. When the bucket is empty it
// returns false plus the wait until a full token accrues — the 429 response's
// Retry-After.
func (q *quotas) allow(tenant string) (bool, time.Duration) {
	if q.rate <= 0 {
		return true, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	b := q.tenants[tenant]
	if b == nil {
		if len(q.tenants) >= maxTenants && !now.Before(q.fullUntil) {
			q.fullUntil = q.dropRefilledLocked(now)
		}
		if len(q.tenants) >= maxTenants {
			return false, q.fullUntil.Sub(now)
		}
		b = &bucket{tokens: q.burst, last: now}
		q.tenants[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(q.burst, b.tokens+dt*q.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / q.rate * float64(time.Second))
	return false, wait
}

// dropRefilledLocked deletes the buckets that have refilled to burst by now
// and returns when the first remaining one will have. Until some bucket is
// dropped no bucket joins the full table, and spending only delays a
// refill, so no bucket refills before that instant.
func (q *quotas) dropRefilledLocked(now time.Time) time.Time {
	soonest := math.Inf(1)
	for tenant, b := range q.tenants {
		left := (q.burst-b.tokens)/q.rate - now.Sub(b.last).Seconds()
		if left <= 0 {
			delete(q.tenants, tenant)
			continue
		}
		soonest = math.Min(soonest, left)
	}
	if len(q.tenants) < maxTenants {
		return now
	}
	return now.Add(time.Duration(math.Ceil(soonest * float64(time.Second))))
}
