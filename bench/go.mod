// The benchmark is a module of its own so that it carries its own build
// file; the module path sits under the parent's so that the parent's
// internal packages stay importable.
module github.com/eyeorg/eyeorg/bench

go 1.22

require github.com/eyeorg/eyeorg v0.0.0

replace github.com/eyeorg/eyeorg => ../
