// Package rand is a stub of math/rand for analyzer fixtures: simtime
// bans the import outright in every importable package.
package rand

// Intn draws from the process-global source.
func Intn(n int) int { return 0 }
