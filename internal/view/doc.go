// Package view implements the SVR score specification framework of §3.1 and
// the incrementally maintained Score materialized view of §3.2.
//
// A score specification names a set of scoring components — the Go
// equivalents of the paper's SQL-bodied functions S1..Sm, each mapping a
// primary-key value of the indexed relation to a float — and an aggregation
// function Agg that combines them into the document's SVR score.  The
// ScoreView keeps Agg(S1(pk), ..., Sm(pk)) up to date incrementally as the
// base relations change (by subscribing to table change notifications, the
// equivalent of incremental view maintenance): it re-evaluates the score of
// every document a change affects and hands it to its listeners — the
// inverted-list indexes.  The materialized rows are the index's Score table
// (internal/index), the table the query algorithms probe; this package stores
// nothing and sits on the relational layer alone.
//
// See ARCHITECTURE.md for the layer map — where this package sits in the
// stack — and for the repo-wide concurrency contract.
package view
