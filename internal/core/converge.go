package core

// ConvergenceStats describes the effort behind a mechanism's most recent
// fixpoint computation — the execution statistics go-eigentrust's
// /compute-with-stats endpoint reports alongside scores.
type ConvergenceStats struct {
	// Iterations is the number of power-iteration (or delta-propagation)
	// rounds the last compute ran.
	Iterations int `json:"iterations"`
	// Residual is the L1 norm of the last applied update vector: how far
	// the reported fixpoint may still be from the true one. Exact-mode
	// computes report the residual of their final fixed iteration.
	Residual float64 `json:"residual"`
	// WarmStart reports whether the compute restarted from a previous
	// fixpoint (incremental mode) rather than from the teleport vector.
	WarmStart bool `json:"warmStart"`
}

// ConvergenceReporter is implemented by mechanisms that track how their
// most recent fixpoint converged; today that is EigenTrust. Other
// mechanisms do not implement it, and callers (wsxd's /compute-with-stats)
// report zero stats for them.
type ConvergenceReporter interface {
	// LastConvergence returns the statistics of the most recent fixpoint
	// computation. Before any compute has run, all fields are zero.
	LastConvergence() ConvergenceStats
}
