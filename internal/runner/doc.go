// Package runner executes the paper's tiled schedules for real on the mp
// message-passing layer, under either the blocking receive→compute→send
// scheme (ProcB) or the non-blocking overlapped scheme (ProcNB) from the
// paper's pseudocode. One wavefront executor runs both grids: the 3-D
// stencil of the Section 5 experiment over an I×J×K space, tiled
// (I/PI)×(J/PJ)×V with all k-tiles of a column mapped to one rank
// (Config), and the 2-D loop of Example 1 over column strips (Config2D).
// The same loop checkpoints and restores both (CheckpointConfig).
package runner
