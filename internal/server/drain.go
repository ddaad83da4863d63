package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"
)

// Graceful drain (the robustness PR's serving half). The shutdown sequence
// on the first signal:
//
//  1. BeginDrain — admission stops: /v1/search and job submit/resume answer
//     503 + Retry-After, /healthz fails so orchestrators pull the instance.
//  2. The jobs subsystem drains: dispatch pauses, running jobs are cancelled
//     (a cancel record is a resumable checkpoint, not data loss), and their
//     ledgers close.
//  3. http.Server.Shutdown waits for in-flight streams to finish.
//
// Everything runs under one drain-timeout budget; when it expires the
// listener is torn down hard (Close) — the ledgers have already checkpointed
// whatever completed, so even a hard stop loses no recorded work.

// Serve runs the HTTP server on l until a value arrives on stop (typically a
// signal.Notify channel carrying SIGTERM/SIGINT), then drains gracefully
// within drainTimeout. It returns nil after a clean drain, the accept-loop
// error if serving fails first, or a drain error when the timeout forced a
// hard close.
func (s *Server) Serve(l net.Listener, stop <-chan os.Signal, drainTimeout time.Duration) error {
	if drainTimeout <= 0 {
		drainTimeout = 10 * time.Second
	}
	hs := &http.Server{Handler: s}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(l) }()

	select {
	case err := <-serveErr:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("server: %w", err)
	case <-stop:
	}

	s.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()

	var drainErr error
	s.mu.Lock()
	jm := s.jobsMgr
	s.mu.Unlock()
	if jm != nil {
		drainErr = jm.Drain(ctx)
	}
	if err := hs.Shutdown(ctx); err != nil {
		// In-flight streams outlived the budget: tear down the connections.
		_ = hs.Close()
		if drainErr == nil {
			drainErr = fmt.Errorf("server: drain timeout: %w", err)
		}
	}
	<-serveErr // Serve has returned ErrServerClosed by now; reap the goroutine
	return drainErr
}
