package core

import (
	"fmt"
	"sort"
	"sync"
)

// This file defines the shard partitioning contract.  server.Router fronts N
// engines ("shards") and routes every write to exactly one of them by a
// Partitioner over the row's routing key (the primary key by default).
// Partitioners are resolved by registered name so the router and whatever
// loaded the shards name the same placement — a partitioner change under
// existing data would silently orphan rows on shards the router never
// consults.

// Partitioner maps a routing key to one of n shards.  Implementations must
// be deterministic and stateless: the same (key, n) pair always yields the
// same shard, on every process that ever routes to the shards.
type Partitioner interface {
	// Name is the identifier the partitioner is registered under.
	Name() string
	// Shard returns the owning shard in [0, n) for the key.
	Shard(key int64, n int) int
}

// DefaultPartitioner is the partitioner used when none is named.
const DefaultPartitioner = "hash"

var (
	partitionersMu sync.RWMutex
	partitioners   = map[string]Partitioner{}
)

// RegisterPartitioner makes a partitioner resolvable by name (for
// server.RouterOptions.Partitioner).  Registering
// a duplicate name panics, like flag redefinition: it is a wiring bug.
func RegisterPartitioner(p Partitioner) {
	partitionersMu.Lock()
	defer partitionersMu.Unlock()
	if _, dup := partitioners[p.Name()]; dup {
		panic(fmt.Sprintf("core: partitioner %q registered twice", p.Name()))
	}
	partitioners[p.Name()] = p
}

// PartitionerByName resolves a registered partitioner; the empty name
// resolves to DefaultPartitioner.
func PartitionerByName(name string) (Partitioner, error) {
	if name == "" {
		name = DefaultPartitioner
	}
	partitionersMu.RLock()
	defer partitionersMu.RUnlock()
	p, ok := partitioners[name]
	if !ok {
		return nil, fmt.Errorf("core: no partitioner registered under %q (have %v)", name, partitionerNamesLocked())
	}
	return p, nil
}

func partitionerNamesLocked() []string {
	names := make([]string, 0, len(partitioners))
	for n := range partitioners {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hashPartitioner spreads keys by a 64-bit finalizer (splitmix64's mixing
// function), so dense sequential primary keys land uniformly instead of
// striping.  This is the default.
type hashPartitioner struct{}

func (hashPartitioner) Name() string { return "hash" }

func (hashPartitioner) Shard(key int64, n int) int {
	x := uint64(key)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return int(x % uint64(n))
}

// modPartitioner routes key k to shard k mod n.  Placement is obvious by
// inspection, which tests and debugging sessions want; real deployments
// want "hash" so key locality cannot skew shard load.
type modPartitioner struct{}

func (modPartitioner) Name() string { return "mod" }

func (modPartitioner) Shard(key int64, n int) int {
	m := key % int64(n)
	if m < 0 {
		m += int64(n)
	}
	return int(m)
}

func init() {
	RegisterPartitioner(hashPartitioner{})
	RegisterPartitioner(modPartitioner{})
}
