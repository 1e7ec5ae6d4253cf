package core

// Fingerprint lets the external tests in this directory compare two
// sessions the way the journal tests here do.
var Fingerprint = fingerprint
