// Package conv exercises the hotpath analyzer's model of []byte → string
// conversions. The compiler borrows the bytes, and allocates nothing, when
// the string cannot outlive the expression: a read of a string-keyed map,
// and an operand of == or != against another string. Every other
// conversion copies.
package conv

// Lookup probes a map with a rendered key.
// hotpath: no-alloc
func Lookup(m map[string]int, b []byte) int {
	return m[string(b)]
}

// LookupOK is Lookup in the comma-ok form, with the key parenthesized.
// hotpath: no-alloc
func LookupOK(m map[string]int, b []byte) bool {
	_, ok := m[(string(b))]
	return ok
}

// Equal compares rendered bytes against a string on either side.
// hotpath: no-alloc
func Equal(b []byte, s string) bool {
	return string(b) == s || s != string(b)
}

// Store keeps the key in the map, so the conversion copies it.
// hotpath: no-alloc
func Store(m map[string]int, b []byte) {
	m[string(b)] = 1 // want `map write` `allocates \(string conversion\)`
}

// Bump increments through a converted key: a write as well.
// hotpath: no-alloc
func Bump(m map[string]int, b []byte) {
	m[string(b)]++ // want `map write` `allocates \(string conversion\)`
}

// Keep returns the string, which outlives the bytes.
// hotpath: no-alloc
func Keep(b []byte) string {
	return string(b) // want `allocates \(string conversion\)`
}

// Less orders strings: only equality is borrowed.
// hotpath: no-alloc
func Less(b []byte, s string) bool {
	return string(b) < s // want `allocates \(string conversion\)`
}

// Runes indexes with a []rune conversion, which always decodes into a
// fresh string.
// hotpath: no-alloc
func Runes(m map[string]int, r []rune) int {
	return m[string(r)] // want `allocates \(string conversion\)`
}

// LookupAny reads a map keyed by an interface: the key is boxed, so the
// conversion copies.
// hotpath: no-alloc
func LookupAny(m map[any]int, b []byte) int {
	return m[string(b)] // want `allocates \(string conversion\)`
}

// EqualAny compares against an interface: the string is boxed, so the
// conversion copies.
// hotpath: no-alloc
func EqualAny(x any, b []byte) bool {
	return x == string(b) // want `allocates \(string conversion\)`
}
