// Package family implements the detection of personal connections of
// Section 2 of the Vada-Link paper: a multi-feature Bayesian classifier that
// combines per-feature conditional probabilities with the Graham combination
//
//	p = Π pᵢ / (Π pᵢ + Π (1 − pᵢ))
//
// where pᵢ = P(L | d(fᵢˣ, fᵢʸ) < Tᵢ) is the probability of a link given that
// the distance between the i-th feature values of the two persons is below
// the feature's threshold. The pᵢ are estimated from training data via Bayes'
// rule from P(d < T | L), P(d < T | ¬L) and the link prior P(L).
//
// The classifier is deliberately simple — the paper stresses that "more
// sophisticated models can be plugged into Vada-Link"; the polymorphic
// Candidate predicate of the core package accepts any implementation.
package family

import (
	"strings"
	"unicode"
)

// Levenshtein computes the edit distance between two strings (unit costs),
// the distance the paper names for person-name features.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(cur[j-1]+1, prev[j]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// NormalizedLevenshtein scales the edit distance to [0, 1] by the longer
// string's length; identical strings score 0 and completely different ones 1.
func NormalizedLevenshtein(a, b string) float64 {
	la, lb := len([]rune(a)), len([]rune(b))
	longest := la
	if lb > longest {
		longest = lb
	}
	if longest == 0 {
		return 0
	}
	return float64(Levenshtein(a, b)) / float64(longest)
}

// Soundex computes the classic 4-character Soundex code of a name; equal
// codes mean phonetically similar surnames. Non-ASCII letters are mapped by
// stripping to their base where trivial, otherwise ignored.
func Soundex(s string) string {
	s = strings.ToUpper(strings.TrimSpace(s))
	var letters []rune
	for _, r := range s {
		if r >= 'A' && r <= 'Z' {
			letters = append(letters, r)
		} else if unicode.IsLetter(r) {
			if base, ok := asciiBase[r]; ok {
				letters = append(letters, base)
			}
		}
	}
	if len(letters) == 0 {
		return "0000"
	}
	code := func(r rune) byte {
		switch r {
		case 'B', 'F', 'P', 'V':
			return '1'
		case 'C', 'G', 'J', 'K', 'Q', 'S', 'X', 'Z':
			return '2'
		case 'D', 'T':
			return '3'
		case 'L':
			return '4'
		case 'M', 'N':
			return '5'
		case 'R':
			return '6'
		}
		return 0 // vowels and H, W, Y
	}
	out := []byte{byte(letters[0])}
	prev := code(letters[0])
	for _, r := range letters[1:] {
		c := code(r)
		if c != 0 && c != prev {
			out = append(out, c)
			if len(out) == 4 {
				break
			}
		}
		if r == 'H' || r == 'W' {
			continue // H and W do not reset the previous code
		}
		prev = c
	}
	for len(out) < 4 {
		out = append(out, '0')
	}
	return string(out)
}

var asciiBase = map[rune]rune{
	'À': 'A', 'Á': 'A', 'Â': 'A', 'Ã': 'A', 'Ä': 'A', 'Å': 'A',
	'È': 'E', 'É': 'E', 'Ê': 'E', 'Ë': 'E',
	'Ì': 'I', 'Í': 'I', 'Î': 'I', 'Ï': 'I',
	'Ò': 'O', 'Ó': 'O', 'Ô': 'O', 'Õ': 'O', 'Ö': 'O',
	'Ù': 'U', 'Ú': 'U', 'Û': 'U', 'Ü': 'U',
	'Ç': 'C', 'Ñ': 'N',
}

// AbsDiff is the absolute difference of two numeric feature values (e.g.
// birth years).
func AbsDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
