package gateway

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestRingOwnershipStableAndConsistent(t *testing.T) {
	urls := []string{"http://a:1", "http://b:1", "http://c:1"}
	r := newRing(urls)

	// Same key, same owner, every time.
	keys := make([]string, 0, 200)
	owners := make(map[string]string)
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("g|b%d_w%d_s%d", 100+i, 1+i%4, i)
		keys = append(keys, k)
		owners[k] = r.owner(k)
		if got := r.owner(k); got != owners[k] {
			t.Fatalf("owner(%q) unstable: %q vs %q", k, owners[k], got)
		}
		if owners[k] == "" {
			t.Fatalf("owner(%q) empty with all replicas alive", k)
		}
	}

	// Every replica owns a reasonable share (vnodes spread the circle).
	byOwner := make(map[string]int)
	for _, k := range keys {
		byOwner[owners[k]]++
	}
	for _, u := range urls {
		if byOwner[u] == 0 {
			t.Errorf("replica %s owns no keys out of %d", u, len(keys))
		}
	}

	// Evicting one replica moves ONLY its keys; survivors keep theirs.
	r.markDown("http://b:1", "test")
	for _, k := range keys {
		now := r.owner(k)
		if now == "http://b:1" {
			t.Fatalf("evicted replica still owns %q", k)
		}
		if owners[k] != "http://b:1" && now != owners[k] {
			t.Errorf("key %q moved from survivor %q to %q on unrelated eviction", k, owners[k], now)
		}
	}

	// Rejoin restores the original assignment exactly.
	r.markUp("http://b:1")
	for _, k := range keys {
		if got := r.owner(k); got != owners[k] {
			t.Errorf("key %q not restored after rejoin: %q vs %q", k, got, owners[k])
		}
	}

	// All replicas down: no owner.
	for _, u := range urls {
		r.markDown(u, "test")
	}
	if got := r.owner(keys[0]); got != "" {
		t.Errorf("owner with empty ring = %q, want \"\"", got)
	}
}

func TestQuotaTokenBucket(t *testing.T) {
	clock := time.Unix(1000, 0)
	q := newQuotas(2, 2, func() time.Time { return clock })

	for i := 0; i < 2; i++ {
		if ok, _ := q.allow("acme"); !ok {
			t.Fatalf("request %d within burst rejected", i)
		}
	}
	ok, wait := q.allow("acme")
	if ok {
		t.Fatal("request over burst admitted")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry-after = %s, want (0, 1s] at 2 req/s", wait)
	}
	// Tenants are isolated.
	if ok, _ := q.allow("other"); !ok {
		t.Error("fresh tenant rejected by a noisy neighbor")
	}
	// Half a second refills one token at 2 req/s.
	clock = clock.Add(500 * time.Millisecond)
	if ok, _ := q.allow("acme"); !ok {
		t.Error("refilled token rejected")
	}
	if ok, _ := q.allow("acme"); ok {
		t.Error("second token admitted after a single-token refill")
	}
	// rate 0 = unlimited.
	free := newQuotas(0, 0, func() time.Time { return clock })
	for i := 0; i < 100; i++ {
		if ok, _ := free.allow("anyone"); !ok {
			t.Fatal("unlimited quota rejected a request")
		}
	}
}

// TestQuotaTenantTableBounded routes more distinct tenants than a lowered
// cap through the quotas at 1 req/s and burst 2, one new tenant a second.
// Each new tenant's bucket has refilled by the time the table next fills,
// so it is dropped and the table stays at the cap, while a tenant kept
// throttled keeps its empty bucket. When no bucket has refilled, a new
// tenant is refused until the first one does.
func TestQuotaTenantTableBounded(t *testing.T) {
	const limit = 4
	defer func(old int) { maxTenants = old }(maxTenants)
	maxTenants = limit
	clock := time.Unix(1000, 0)
	q := newQuotas(1, 2, func() time.Time { return clock })
	admit := func(tenant string, want bool) {
		t.Helper()
		if ok, _ := q.allow(tenant); ok != want {
			t.Fatalf("at %s tenant %s admitted %v, want %v", clock.Format(time.TimeOnly), tenant, ok, want)
		}
		if n := len(q.tenants); n > limit {
			t.Fatalf("tenant table holds %d buckets, cap %d", n, limit)
		}
	}
	admit("hog", true)
	admit("hog", true)
	admit("hog", false)
	for i := range 3 * limit {
		clock = clock.Add(time.Second)
		admit("hog", true) // spends the token that just accrued
		admit(fmt.Sprintf("t%d", i), true)
	}
	admit("hog", false) // a fresh bucket would admit a burst

	// Fill the table with buckets that have not refilled: the next new
	// tenant is refused until the first of them has.
	late := ""
	for i := 0; late == ""; i++ {
		if ok, wait := q.allow(fmt.Sprintf("f%d", i)); !ok {
			late = fmt.Sprintf("f%d", i)
			if wait != time.Second || len(q.tenants) != limit {
				t.Fatalf("%s refused with wait %s and %d buckets, want 1s and %d", late, wait, len(q.tenants), limit)
			}
			clock = clock.Add(wait)
		}
	}
	admit(late, true)
	admit("hog", true) // its own token, accrued in the same second
	admit("hog", false)
}

func TestNewValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"no replicas", Config{}, "no replicas"},
		{"bad scheme", Config{Replicas: []string{"ftp://a:1"}}, "http"},
		{"no host", Config{Replicas: []string{"http://"}}, "host"},
		{"duplicate", Config{Replicas: []string{"http://a:1", "http://a:1"}}, "duplicate"},
		{"negative quota", Config{Replicas: []string{"http://a:1"}, QuotaRate: -1}, "quota"},
		{"negative probe failures", Config{Replicas: []string{"http://a:1"}, ProbeFailures: -2}, "probe"},
	} {
		_, err := New(tc.cfg)
		if err == nil {
			t.Errorf("%s: want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	gw, err := New(Config{Replicas: []string{"http://a:1", "https://b:2"}})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if got := len(gw.Replicas()); got != 2 {
		t.Errorf("replica count = %d", got)
	}
}

func TestFlightKeySpelling(t *testing.T) {
	a := flightKey(estimateMeta{Graph: "g", Budget: 300, Walkers: 2, Seed: 7})
	b := flightKey(estimateMeta{Graph: "g", Budget: 300, Walkers: 2, Seed: 7})
	if a != b {
		t.Fatalf("identical requests key differently: %q vs %q", a, b)
	}
	for _, other := range []estimateMeta{
		{Graph: "h", Budget: 300, Walkers: 2, Seed: 7},
		{Graph: "g", Budget: 301, Walkers: 2, Seed: 7},
		{Graph: "g", Budget: 300, Walkers: 3, Seed: 7},
		{Graph: "g", Budget: 300, Walkers: 2, Seed: 8},
	} {
		if flightKey(other) == a {
			t.Errorf("distinct config %+v collides with %q", other, a)
		}
	}
}
