package video

// NoiseVideo exports noiseVideo to the external benchmarks.
var NoiseVideo = noiseVideo

// Validate reports whether Decode would accept data: one Write to a
// Checker, which builds no frame.
func Validate(data []byte) error {
	var c Checker
	c.Write(data)
	_, err := c.Verdict()
	return err
}
