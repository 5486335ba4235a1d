package tune

// AuxBytes exposes the planner's aux model to the external test package,
// which sorts through sortalgo (an importer of tune) to measure peaks.
var AuxBytes = auxBytes
