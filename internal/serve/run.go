package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"
)

// Run serves h on ln until ctx is cancelled, then shuts down gracefully:
// in-flight requests get up to drain to complete (new connections are
// refused immediately), and the workspace's dirty trajectories are flushed
// to the store afterwards — the walks clients already paid for survive the
// restart. A drain of 0 means 10 seconds. Run returns nil on a clean
// drain+flush; requests still running at the deadline are abandoned and
// reported as an error (the flush still runs — trajectory durability does
// not depend on clients hanging up in time).
//
// cmd/serve wires ctx to SIGINT/SIGTERM, fixing the historical behavior of
// exiting mid-request with the trajectory cache lost.
func Run(ctx context.Context, ln net.Listener, h http.Handler, ws *Workspace, drain time.Duration) error {
	if drain <= 0 {
		drain = 10 * time.Second
	}
	srv := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	var err error
	select {
	case err = <-serveErr:
		// The listener failed on its own; there is nothing to drain, but
		// flush what the cache holds.
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		err = srv.Shutdown(shutdownCtx)
		if errors.Is(err, context.DeadlineExceeded) {
			err = errors.New("serve: drain deadline exceeded; abandoned in-flight requests")
		}
		<-serveErr // Serve has returned http.ErrServerClosed by now
	}
	if ws != nil {
		if ferr := ws.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}
