package ui

// PathMultiset exposes the similarity's path multiset to the external
// hash-oracle test.
var PathMultiset = pathMultiset
