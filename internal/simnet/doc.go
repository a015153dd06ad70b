// Package simnet is a deterministic discrete-event simulator for
// activity graphs over serially-shared resources.
//
// It substitutes for the paper's physical cluster: processors' CPUs, DMA
// engines and NIC links are Resources; the phases of every tile execution
// (MPI buffer fills, computation, kernel copies, wire transmission) are
// Activities with precedence edges. The engine computes the exact start and
// finish time of every activity under FIFO resource scheduling, giving the
// makespan of a schedule without running wall-clock experiments — and,
// unlike wall-clock runs, perfectly reproducibly.
//
// The model: an Activity occupies exactly one Resource for a fixed duration
// and may start only after all its predecessors have finished. A Resource
// executes one activity at a time, picking among ready activities the one
// that became ready first (ties broken by creation order).
//
// # Hierarchical fabrics
//
// Beyond per-node port resources, a Fabric models the switch hierarchy
// between nodes (topo.Spec: edge/aggregation tiers of a fat tree, per-level
// bandwidth and latency, a fixed number of parallel uplinks per switch).
// Every uplink and downlink is an ordinary Resource, so link contention at
// an oversubscribed tier falls out of the same FIFO scheduling that models
// CPU and NIC contention — no special queueing code. Route computes the
// up-then-down hop sequence of a message from the lowest common ancestor of
// its endpoints (LCA routing), spreading flows across parallel uplinks by a
// deterministic hash of the endpoint pair (ECMP without randomness, see
// topo.Spec.UplinkIndex). A message between nodes under the same edge
// switch takes zero fabric hops: the hierarchy is pay-as-you-go, and the
// zero topo.Spec reproduces the flat single-switch machine exactly.
// DESIGN.md §12 develops the model and its determinism argument.
//
// The engine is allocation-lean and pointer-free: resources and activities
// are dense int32 handles (ResID, ActID; the zero ActID means "none"), and
// all their state lives in flat columns indexed by handle — resource, duration,
// start, end, ready time, predecessor counts, CSR offsets, critical-path
// links — plus one ready heap of handles per resource. No column holds a
// pointer, string, slice or map (a reflection test enforces it), so the
// garbage collector never scans the activity graph and Run's hot loop never
// executes a write barrier. Activity labels and resource names sit in side
// tables filled only for non-empty strings, i.e. only by traced builds;
// results are read back through Start, End, BusyTime and ResName.
// Dependence edges accumulate in one flat list that Run compacts into a
// CSR-style successor array via a two-pass degree count, and Reset lets a
// caller reuse one Engine — and all of its columns — across many
// simulations (one engine per sweep worker). The Fabric follows the same
// discipline: its links are ordinary resource handles, reserved up front
// from the world size and the spec (FabricLinks), and Route appends into a
// caller-owned buffer so steady-state routing allocates nothing — the
// per-rank allocation budget stays flat from 100 to 10000 ranks
// (BenchmarkScaleAllocBudget locks it).
//
// Every Run also checks its makespan against two lower bounds any feasible
// schedule obeys: the longest dependency-only path and the busiest
// resource's total occupancy. Float addition is monotone, so the comparison
// is exact; a violation is reported as an error, like a deadlock.
package simnet
