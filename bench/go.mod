// The benchmark is a module of its own so that it builds, vets and tests
// apart from the solver; the replace directive points it at the tree it
// measures. The shared "prometheus/" path prefix is what lets it import the
// solver's internal packages and time their exported functions from outside.
module prometheus/bench

go 1.22

require prometheus v0.0.0

replace prometheus => ../
