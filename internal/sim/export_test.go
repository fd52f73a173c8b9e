package sim

// SetParanoidFF switches paranoid fast-forward (see paranoidFF) on or off
// and returns the previous setting, so tests can run it without the
// environment variable.
func SetParanoidFF(on bool) (prev bool) {
	prev, paranoidFF = paranoidFF, on
	return prev
}
