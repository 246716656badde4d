package video

// NoiseVideo exports noiseVideo to the external benchmarks.
var NoiseVideo = noiseVideo
