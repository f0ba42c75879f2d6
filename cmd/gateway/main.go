// Command gateway runs the sharded front tier over a fleet of serve
// replicas. It consistent-hash routes each trajectory key (graph, budget,
// walkers, seed) to one owning replica so the fleet records every walk
// exactly once, holds concurrent requests for a cold key behind a
// single-flight table, and ships finished .osnt trajectories between
// replicas when ring membership changes ownership — N replicas serve the
// combined QPS while spending the upstream API budget of one.
//
// The gateway probes replica /healthz (requiring ready=true), evicts
// failing replicas from the ring and rejoins them on recovery, and applies
// per-tenant token-bucket admission control at the edge (429 with
// Retry-After when a tenant exceeds its request rate).
//
// Usage:
//
//	gateway -replicas http://10.0.0.1:8080,http://10.0.0.2:8080,http://10.0.0.3:8080
//	gateway -replicas http://a:8080,http://b:8080 -quota-rate 50 -quota-burst 200
//	gateway -replicas http://a:8080,http://b:8080 -probe-interval 1s -probe-failures 3
//
// Then:
//
//	curl -s localhost:8081/healthz
//	curl -s -X POST localhost:8081/estimate -H 'X-Tenant: acme' -d '{"graph": "pokec", "pairs": [[1,2]]}'
//	curl -s -X PATCH localhost:8081/graphs/pokec -d '{"add": [[1,2]]}'
//
// See docs/OPERATIONS.md for the full deployment guide.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served only on -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/serve"
)

func main() {
	var (
		addr          = flag.String("addr", ":8081", "listen address")
		replicas      = flag.String("replicas", "", "comma-separated serve replica base URLs (required), e.g. http://10.0.0.1:8080,http://10.0.0.2:8080")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "replica health-probe period (0 disables background probing)")
		probeFailures = flag.Int("probe-failures", 2, "consecutive probe failures before a replica is evicted from the ring")
		quotaRate     = flag.Float64("quota-rate", 0, "per-tenant request rate in req/s (0 disables admission control)")
		quotaBurst    = flag.Float64("quota-burst", 0, "per-tenant burst capacity in requests (0 = same as -quota-rate)")
		tenantHeader  = flag.String("tenant-header", "X-Tenant", "request header naming the tenant for quota accounting")
		drain         = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests on SIGINT/SIGTERM")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6061); empty disables profiling")
	)
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "gateway: "+format+"\n", args...)
		os.Exit(2)
	}
	if *replicas == "" {
		fail("-replicas is required: a comma-separated list of serve replica base URLs")
	}
	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		u = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(u), "/"))
		if u == "" {
			fail("-replicas has an empty entry; want comma-separated base URLs like http://10.0.0.1:8080")
		}
		urls = append(urls, u)
	}
	if *probeInterval < 0 {
		fail("-probe-interval must be non-negative, got %s", *probeInterval)
	}
	if *probeFailures < 1 {
		fail("-probe-failures must be at least 1, got %d", *probeFailures)
	}
	if *quotaRate < 0 {
		fail("-quota-rate must be non-negative, got %g", *quotaRate)
	}
	if *quotaBurst < 0 {
		fail("-quota-burst must be non-negative, got %g", *quotaBurst)
	}
	if *quotaBurst > 0 && *quotaRate == 0 {
		fail("-quota-burst without -quota-rate has no effect; set -quota-rate to enable admission control")
	}
	if *tenantHeader == "" {
		fail("-tenant-header must be non-empty")
	}
	if *drain <= 0 {
		fail("-drain must be positive, got %s", *drain)
	}
	if *pprofAddr != "" {
		if _, _, err := net.SplitHostPort(*pprofAddr); err != nil {
			fail("-pprof must be a host:port listen address, got %q: %v", *pprofAddr, err)
		}
	}

	gw, err := gateway.New(gateway.Config{
		Replicas:      urls,
		ProbeInterval: *probeInterval,
		ProbeFailures: *probeFailures,
		QuotaRate:     *quotaRate,
		QuotaBurst:    *quotaBurst,
		TenantHeader:  *tenantHeader,
	})
	if err != nil {
		// Flag-level validation is done above; what remains is the replica
		// list itself (bad scheme, missing host, duplicates).
		fail("-replicas: %v", err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	gw.Start(ctx)

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gateway: -pprof:", err)
			os.Exit(1)
		}
		log.Printf("pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := http.Serve(pln, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	log.Printf("routing across %d replicas: %s", len(urls), strings.Join(urls, ", "))
	log.Printf("probe=%s/%d quota=%g req/s burst=%g tenant-header=%s",
		*probeInterval, *probeFailures, *quotaRate, *quotaBurst, *tenantHeader)
	log.Printf("listening on %s", ln.Addr())
	if err := serve.Run(ctx, ln, gw.Handler(), nil, *drain); err != nil {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		os.Exit(1)
	}
	log.Printf("drained; bye")
}
