package export

// Byte classes for appendIndented. Inside a string only quote and backslash
// matter; outside one, the structural punctuation ends a literal too.
const (
	plainByte = iota // part of a literal, or of a string's contents
	punctByte        // { } [ ] , :
	quoteByte        // " or \
)

var byteClass = func() (t [256]uint8) {
	for _, c := range []byte("{}[],:") {
		t[c] = punctByte
	}
	t['"'], t['\\'] = quoteByte, quoteByte
	return t
}()

// appendIndented appends src, JSON as encoding/json's compact encoding
// writes it, to dst laid out exactly as json.Indent(dst, src, "", " ") lays
// it out, for a value that starts depth levels deep: its nested lines are
// indented past depth, and its closing bracket sits at depth. Because src
// is known to be valid compact JSON (no whitespace between tokens), one
// pass tracking string state, nesting depth and the , : punctuation is
// enough; like json.Indent it keeps an empty {} or [] on one line. src may
// stop short of its value's closing brackets after a member: Write lays out
// an instance's summary members that way and appends its events after them.
func appendIndented(dst, src []byte, depth int) []byte {
	// open: the last token was { or [, and its newline waits to see
	// whether the container is empty.
	open := false
	for i := 0; i < len(src); {
		c := src[i]
		if open && c != '}' && c != ']' {
			open = false
			depth++
			dst = appendNewline(dst, depth)
		}
		j := i + 1
		switch {
		case c == '"':
			for {
				for byteClass[src[j]] != quoteByte {
					j++
				}
				if src[j] == '"' {
					break
				}
				j += 2 // a backslash and the byte it escapes
			}
			j++
			dst = append(dst, src[i:j]...)
		case c == '{' || c == '[':
			open = true
			dst = append(dst, c)
		case c == ',':
			dst = appendNewline(append(dst, c), depth)
		case c == ':':
			dst = append(dst, c, ' ')
		case c == '}' || c == ']':
			if open {
				open = false
			} else {
				depth--
				dst = appendNewline(dst, depth)
			}
			dst = append(dst, c)
		default:
			for j < len(src) && byteClass[src[j]] == plainByte {
				j++
			}
			dst = append(dst, src[i:j]...)
		}
		i = j
	}
	return dst
}

// appendNewline starts a new line indented one space per nesting level.
func appendNewline(buf []byte, depth int) []byte {
	buf = append(buf, '\n')
	for ; depth > 0; depth-- {
		buf = append(buf, ' ')
	}
	return buf
}
