package server

import (
	"net/http"
	"time"
)

// NewLoadClient returns an http.Client tuned for loopback load generation:
// enough idle connections that every worker keeps one alive, so steady-state
// requests measure request handling, not TCP handshakes.  The repo
// benchmark's load generator (benchmark/) builds its clients with it.
func NewLoadClient(workers int) *http.Client {
	transport := &http.Transport{
		MaxIdleConns:        workers * 2,
		MaxIdleConnsPerHost: workers * 2,
	}
	return &http.Client{Transport: transport, Timeout: 30 * time.Second}
}
