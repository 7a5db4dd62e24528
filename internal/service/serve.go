package service

import (
	"context"
	"net"
	"net/http"
	"time"
)

// Timeouts for the production HTTP server. Request bodies are small JSON
// documents, but /v1/predictwait simulates a whole schedule and pprof
// profiles stream for tens of seconds, so the write timeout is generous.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	writeTimeout      = 90 * time.Second
	idleTimeout       = 2 * time.Minute
	shutdownGrace     = 10 * time.Second
)

// Serve listens on addr and serves the handler until ctx is cancelled,
// then drains in-flight requests gracefully (bounded by shutdownGrace).
// It returns nil after a clean shutdown.
func (s *Server) Serve(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.ServeListener(ctx, ln)
}

// ServeListener is Serve on an existing listener, so tests and embedders
// can bind port 0 and learn the address before serving. The listener is
// closed when serving stops.
func (s *Server) ServeListener(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.log.Info("shutting down", "addr", ln.Addr().String())
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace) //lint:allow ctxflow the server ctx is already done here; the shutdown grace period must outlive it
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			return err
		}
		// Serve returns ErrServerClosed once Shutdown begins; drain it.
		<-errc
		return nil
	}
}
