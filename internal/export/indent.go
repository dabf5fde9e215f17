package export

import "io"

// indentChunk is the size of the buffer writeIndented streams through.
const indentChunk = 32 << 10

// Byte classes for writeIndented. Inside a string only quote and backslash
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

// writeIndented streams src, one JSON value as encoding/json's compact
// encoding writes it, to w laid out exactly as json.Indent(dst, src, "", " ")
// lays it out, then ends it with the newline json.Encoder adds. Because src
// is known to be valid compact JSON (no whitespace between tokens), one pass
// tracking string state, nesting depth and the , : punctuation is enough;
// like json.Indent it keeps an empty {} or [] on one line. Output leaves
// through one indentChunk buffer, which a single token may overrun.
func writeIndented(w io.Writer, src []byte) error {
	// The slack holds the token that crosses the chunk size.
	buf := make([]byte, 0, indentChunk+512)
	// open: the last token was { or [, and its newline waits to see
	// whether the container is empty.
	depth, open := 0, false
	for i := 0; i < len(src); {
		c := src[i]
		if open && c != '}' && c != ']' {
			open = false
			depth++
			buf = appendNewline(buf, depth)
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
			buf = append(buf, src[i:j]...)
		case c == '{' || c == '[':
			open = true
			buf = append(buf, c)
		case c == ',':
			buf = appendNewline(append(buf, c), depth)
		case c == ':':
			buf = append(buf, c, ' ')
		case c == '}' || c == ']':
			if open {
				open = false
			} else {
				depth--
				buf = appendNewline(buf, depth)
			}
			buf = append(buf, c)
		default:
			for j < len(src) && byteClass[src[j]] == plainByte {
				j++
			}
			buf = append(buf, src[i:j]...)
		}
		i = j
		if len(buf) >= indentChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(append(buf, '\n'))
	return err
}

// appendNewline starts a new line indented one space per nesting level.
func appendNewline(buf []byte, depth int) []byte {
	buf = append(buf, '\n')
	for ; depth > 0; depth-- {
		buf = append(buf, ' ')
	}
	return buf
}
