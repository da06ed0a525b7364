package compiled

// Hooks for the external tests of this directory (package
// compiled_test), which run the hybrid engine and so cannot be in this
// package: the block size, the shared test databases and the final
// pipeline's loop shape.

const ProbeBlock = probeBlock

var SharedDBs = testDBs

func FinalRunsSurvivors(cp *Program) bool { return cp.pr.final.loop == loopRows }
