// The benchmark is a module of its own so that it builds from its own
// file and stays out of the root module's `go build ./...`. Its import
// path sits under aap/, which is what lets it import aap/internal/...;
// the replace points at the checkout it is measuring.
module aap/benchmark

go 1.24

require aap v0.0.0

replace aap => ../
