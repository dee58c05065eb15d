// Package server is the HTTP serving layer over the SVR engine: a JSON API
// that exposes keyword search, row writes and batched mutations, plus the
// operational surface (health, stats, per-endpoint latency metrics) a
// long-running daemon needs.  cmd/svrserve is the daemon built on it.
//
// Endpoints:
//
//	POST /v1/indexes/{name}/search   top-k keyword search (method options:
//	                                 k, disjunctive, with_term_scores,
//	                                 load_rows)
//	POST /v1/tables/{name}/rows      batched row insertion through
//	                                 Engine.ApplyBatch
//	POST /v1/batch                   mixed insert/update/delete ops applied
//	                                 as one Engine.ApplyBatch
//	GET  /healthz                    liveness plus uptime and index names
//	GET  /v1/stats                   index.Stats per index, buffer-pool and
//	                                 page-file counters, per-endpoint QPS
//	                                 and latency histograms
//
// The layer adds routing, JSON codec work and metrics but no locking of its
// own: requests fan straight into the engine's goroutine-safe entry points
// (see ARCHITECTURE.md for the concurrency contract).  Shutdown is graceful
// — a draining fence turns new requests away with a clean 503, in-flight
// requests complete, then Engine.Close drains the index locks and audits
// buffer-pool pins — so a client can never observe a torn response or a
// half-closed engine.
//
// The package also houses the serving load generator (RunSearchLoad), which
// drives a query mix over real HTTP; BenchmarkServeQuery uses it to report
// serving overhead against the direct core.TextIndex.Search path.
package server
