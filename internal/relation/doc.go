// Package relation implements the minimal relational substrate the SVR
// engine sits on: typed schemas, tables keyed by an integer primary key and
// stored in B+-trees, secondary indexes, and change notification hooks used
// for incremental materialized-view maintenance.
//
// A Table stores each row in two B+-trees keyed by the same primary key: the
// row tree holds the fixed-width columns (KindInt64, KindFloat64, the pk
// included, 8 bytes apiece) and the string tree the KindString columns.  An
// update writes only the tree whose columns changed, so a score update
// rewrites a few bytes of a leaf shared by a hundred-odd rows instead of a
// page holding two rows' text; reads join the two entries of a key, and
// scans ascend both trees in lockstep.  The split follows the schema alone.
//
// The paper assumes an ordinary SQL engine (DB2/Oracle/Informix style) that
// stores the base relations, evaluates the SQL-bodied scoring functions and
// incrementally maintains the Score materialized view.  This package is that
// substrate, reduced to the operations those components actually need:
// point lookups by primary key, foreign-key lookups through secondary
// indexes, full scans, and per-row update notifications.
//
// See ARCHITECTURE.md for the layer map — where this package sits in the
// stack — and for the repo-wide concurrency contract.
package relation
