//go:build race

package partsort

// raceBuild reports a build with the race detector, which slows the
// largest sorts of the tests by about ten times.
const raceBuild = true
