package gateway

// SetMaxFlights lowers the single-flight table cap for one test and returns
// the function that restores it.
func SetMaxFlights(n int) (restore func()) {
	old := maxFlights
	maxFlights = n
	return func() { maxFlights = old }
}
