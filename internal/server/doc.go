// Package server is the HTTP serving layer over the SVR engine: a JSON API
// that exposes keyword search, row writes, batched mutations, online index
// and tenant lifecycle and change streams, plus the operational surface
// (health, stats, per-endpoint latency metrics) a long-running daemon needs.
// cmd/svrserve is the daemon built on it.
//
// There is one handler set.  Router (router.go) decodes, tenant-qualifies
// and validates every request once and then talks only to []Backend —
// EngineBackend (an in-process core.Engine) or HTTPBackend (a remote
// svrserve) — partitioning writes, scattering searches and merging answers
// by code that is the identity when there is one backend.  New(engine) is
// that case: a Router over one owning EngineBackend; Server is an alias.
// Every route therefore behaves the same over one engine, several
// in-process shards or several remote ones (the API tests run over all
// three).
//
// Endpoints (an X-SVR-Tenant header namespaces every table and index name):
//
//	POST   /v1/indexes/{name}/search     top-k keyword search (k, disjunctive,
//	                                     with_term_scores, load_rows); over
//	                                     several shards TF-IDF ranks with
//	                                     summed document frequencies, and a
//	                                     dead shard makes the result partial
//	POST   /v1/indexes/{name}/termstats  the query's document frequencies,
//	                                     summed over shards
//	POST   /v1/tables/{name}/rows        batched row insertion, routed by key
//	POST   /v1/batch                     mixed insert/update/delete ops, one
//	                                     Engine.ApplyBatch per involved shard
//	GET    /v1/tables/{name}/schema      column names and kinds
//	POST   /v1/indexes                   build an index online on every shard;
//	                                     answers the resolved method
//	DELETE /v1/indexes/{name}            drop it everywhere
//	POST   /v1/tenants                   register a tenant and its per-shard
//	                                     quota; answers its status
//	GET    /v1/tenants                   tenants with usage summed over shards
//	GET    /v1/changes?table=T           NDJSON stream of T's committed
//	                                     changes, every shard's interleaved
//	                                     (per-key order; needs every shard)
//	GET    /healthz                      liveness: per-shard health flags, no
//	                                     fan-out
//	GET    /v1/stats                     engine counters summed over shards
//	                                     (indexes, pool, pagefile,
//	                                     durability), the per-shard breakdown,
//	                                     per-endpoint and per-tenant latency
//
// The layer adds routing, JSON codec work and metrics but no locking of its
// own: requests fan straight into the engine's goroutine-safe entry points
// (see ARCHITECTURE.md for the concurrency contract).  Shutdown is graceful
// — a draining fence turns new requests away with a clean 503, in-flight
// requests complete, then the health prober stops and the backends close
// (Engine.Close drains the index locks and audits buffer-pool pins) — so a
// client can never observe a torn response or a half-closed engine.
//
// The package drives no load of its own: the one HTTP load generator is the
// repo benchmark's (benchmark/), which builds its clients with NewLoadClient.
package server
