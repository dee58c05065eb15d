// Package core implements the SVR engine: the paper's "text management
// component" (§3), tightly integrated with the relational substrate.
//
// The engine owns a relational database, a text analyzer and any number of
// text indexes.  Creating a text index on a (table, text column) pair with a
// score specification does everything Figure 2 of the paper describes:
//
//  1. the Score materialized view is created from the score specification
//     (§3.1, §3.2);
//  2. the chosen inverted-list method (§4) is bulk built from the text
//     column and the view's scores, which populate the method's Score table
//     — the one materialized copy of the view;
//  3. incremental maintenance is wired up: every change event — a
//     structured-data update the view turns into a score change
//     (Algorithm 1), a document insert, delete or content edit (Appendix A)
//     — becomes an index.Update on the index's one queue, flushed through
//     the method's only write, ApplyUpdates: at once for a mutation outside
//     Engine.ApplyBatch, at the batch's end inside one;
//  4. keyword search queries run the method's top-k algorithm against the
//     latest scores and join the ranked IDs back to the base rows.
//
// See ARCHITECTURE.md for the layer map — where this package sits in the
// stack — and for the repo-wide concurrency contract.
package core
