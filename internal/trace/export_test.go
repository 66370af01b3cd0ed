package trace

// ReferenceReadBinary exposes the reference decoder to the external
// tests that decode the paper traces, which package trace cannot
// import.
var ReferenceReadBinary = referenceReadBinary
