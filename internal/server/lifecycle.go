package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// lifecycle is the Router's HTTP serving skeleton: listener ownership, the
// draining fence, in-flight request accounting and the ordered graceful
// shutdown.
type lifecycle struct {
	// draining turns new requests away with 503 while shutdown waits for
	// in-flight ones; it is the HTTP analogue of the engine's close fence.
	draining atomic.Bool
	// inflightN counts requests inside the fence, so shutdown can drain
	// them even when the router does not own the listener (a caller
	// embedding the handler in its own http.Server) — http.Server.Shutdown
	// only covers the owned-listener path.  A mutex-guarded counter with an
	// idle signal, not a sync.WaitGroup: requests keep arriving (to be
	// 503'd) while the drain waits, and Add racing Wait from zero is
	// documented WaitGroup misuse that can panic.
	inflightMu sync.Mutex
	inflightN  int
	// inflightIdle, when non-nil, is closed by the request that drops the
	// counter to zero; shutdown installs it to wait for the drain.
	inflightIdle chan struct{}

	httpSrv  *http.Server
	listener net.Listener
	// serveDone closes when the accept loop exits; serveErr (valid after
	// the close) is nil on a clean ErrServerClosed exit.  Exposed through
	// Done/ServeErr so a daemon can notice its accept loop dying instead of
	// serving nothing until an operator intervenes.
	serveDone chan struct{}
	serveErr  error

	closeOnce sync.Once
	closeErr  error
}

// Handler returns the router's root handler: the route mux behind the
// in-flight counter and the draining fence.  Exposed so tests and embedding
// callers can serve it from their own listener.
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Count before the fence check: a request that passes the check is
		// always visible to shutdown's drain wait.
		rt.inflightMu.Lock()
		rt.inflightN++
		rt.inflightMu.Unlock()
		defer func() {
			rt.inflightMu.Lock()
			rt.inflightN--
			if rt.inflightN == 0 && rt.inflightIdle != nil {
				close(rt.inflightIdle)
				rt.inflightIdle = nil
			}
			rt.inflightMu.Unlock()
		}()
		if rt.draining.Load() {
			writeError(w, &backendError{status: http.StatusServiceUnavailable, msg: "server is draining"})
			return
		}
		// The mux's built-in 404/405 responses are plain text; the API
		// contract says every non-2xx body is {"error":...} JSON, so those
		// defaults are rewritten on the way out and recorded under a
		// catch-all metrics label (they never reach an instrumented route).
		jw := &jsonErrorWriter{ResponseWriter: w}
		start := time.Now()
		rt.mux.ServeHTTP(jw, r)
		if jw.rewrote {
			rt.metrics.Observe("(unmatched)", jw.status, time.Since(start))
		}
	})
}

// Start listens on addr (e.g. ":8080", or "127.0.0.1:0" for an ephemeral
// port) and serves in a background goroutine.  It returns the bound address.
func (rt *Router) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	rt.listener = ln
	rt.httpSrv = &http.Server{
		Handler:      rt.Handler(),
		ReadTimeout:  rt.opts.ReadTimeout,
		WriteTimeout: rt.opts.WriteTimeout,
	}
	go func() {
		err := rt.httpSrv.Serve(ln)
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			rt.serveErr = err
		}
		close(rt.serveDone)
	}()
	return ln.Addr().String(), nil
}

// Done closes when the accept loop has exited — after Shutdown, or early if
// Serve failed.  A daemon selects on it alongside its signal channel.
func (rt *Router) Done() <-chan struct{} { return rt.serveDone }

// ServeErr reports why the accept loop exited; it is meaningful once Done
// is closed and nil for a clean shutdown.
func (rt *Router) ServeErr() error { return rt.serveErr }

// Shutdown drains and closes, in the order that keeps every response whole:
//
//  1. the draining fence flips — requests arriving from here on get a
//     clean 503 without touching a backend, and open change streams end at
//     their next tick;
//  2. http.Server.Shutdown stops the listener and waits (up to ctx) for
//     in-flight handlers to finish writing their responses;
//  3. the health prober stops, then every backend closes — for an owning
//     EngineBackend that is Engine.Close, which drains the index locks,
//     surfaces maintenance errors, flushes dirty pages and audits
//     buffer-pool pin accounting.
//
// Within ctx's deadline a request never observes a closed engine; a
// straggler past it hits the engine's close fence and gets a clean 503 —
// never a torn response.  Shutdown is idempotent; concurrent and repeated
// calls return the first call's result.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.closeOnce.Do(func() {
		rt.draining.Store(true)
		var errs []error
		if rt.listener != nil {
			if err := rt.httpSrv.Shutdown(ctx); err != nil {
				errs = append(errs, fmt.Errorf("server: http shutdown: %w", err))
			}
			<-rt.serveDone
			if rt.serveErr != nil {
				errs = append(errs, fmt.Errorf("server: serve: %w", rt.serveErr))
			}
		}
		// Drain the handlers themselves (covers the embedded-handler case,
		// where no owned http.Server waits for them).  Requests arriving
		// during the wait only run the 503 fence path, so the one
		// zero-crossing signal suffices.  If ctx expires first, the close
		// proceeds anyway: stragglers then hit the backend's close fence.
		rt.inflightMu.Lock()
		var drained chan struct{}
		if rt.inflightN > 0 {
			drained = make(chan struct{})
			rt.inflightIdle = drained
		}
		rt.inflightMu.Unlock()
		if drained != nil {
			select {
			case <-drained:
			case <-ctx.Done():
				errs = append(errs, fmt.Errorf("server: handler drain: %w", ctx.Err()))
			}
		}
		close(rt.stop)
		rt.probing.Wait()
		for _, b := range rt.backends {
			if err := b.Close(); err != nil {
				errs = append(errs, fmt.Errorf("server: backend %s close: %w", b.Label(), err))
			}
		}
		rt.closeErr = errors.Join(errs...)
	})
	return rt.closeErr
}
