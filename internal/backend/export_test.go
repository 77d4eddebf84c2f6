package backend

// SynthReqs exposes the seeded synthetic arrival set to the external
// package backend_test, whose golden table also needs scenario (which
// imports backend, so that half cannot live in this package).
var SynthReqs = synthReqs
