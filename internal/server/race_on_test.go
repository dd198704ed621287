//go:build race

package server

// raceEnabled reports that this test binary was built with the race
// detector, which slows every path several-fold and still randomizes the
// sync.Pools left in the process (shard task buffers, wire encode
// buffers), so the end-to-end allocation and heap gates skip it.
const raceEnabled = true
