package core

// ErrMemoHitBeatsBest exposes the search's invariant error to the
// external tests in package core_test.
var ErrMemoHitBeatsBest = errMemoHitBeatsBest
