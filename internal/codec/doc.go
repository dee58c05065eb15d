// Package codec provides the low-level binary encodings shared by the
// storage engine and the inverted-list layouts: unsigned and zig-zag signed
// varints, fixed-width integer and float encodings, length-prefixed byte
// strings, and order-preserving keys whose bytewise order equals the order
// of the values they encode.
//
// The d-gaps that make the ID and Chunk lists compact (§5.2, Table 1) are
// not encoded here: package postings bitpacks each block's doc-ID gaps
// itself and uses this package only for the varint framing around them.
//
// See ARCHITECTURE.md for the layer map — where this package sits in the
// stack — and for the repo-wide concurrency contract.
package codec
