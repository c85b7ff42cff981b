package store

// Reconstruct exposes the data-only rebuild Read and Decode share to the
// external-package fuzz target.
var Reconstruct = reconstruct
