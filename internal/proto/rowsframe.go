package proto

import (
	"bytes"
	"math"
	"strconv"
)

// Rows frames are the one frame type whose count grows with the
// result, so they have a codec of their own: an append encoder on the
// server and a hand parser on the client, neither of which touches
// reflect or allocates per value. The wire bytes are encoding/json's —
// the encoder is pinned to json.Marshal byte for byte and the parser
// to the strict decoder by differential fuzzing (rowsframe_test.go).

// rowsFramePrefix opens every canonical rows frame: the field order and
// spacing json.Marshal gives Frame{Type: FrameRows, Rows: rows}.
const rowsFramePrefix = `{"frame":"rows","rows":[`

// appendRowsFrame appends the frame line of one row batch to dst:
// exactly json.Marshal(Frame{Type: FrameRows, Rows: rows}) plus '\n',
// including its corners (no rows: the field is omitted; a nil row:
// null).
func appendRowsFrame(dst []byte, rows [][]int64) []byte {
	if len(rows) == 0 {
		return append(dst, `{"frame":"rows"}`+"\n"...)
	}
	dst = append(dst, rowsFramePrefix...)
	for i, row := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		if row == nil {
			dst = append(dst, "null"...)
			continue
		}
		dst = append(dst, '[')
		for j, v := range row {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, v, 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}\n"...)
}

// Decoder decodes frame lines, reusing its row storage from one rows
// frame to the next: a rows frame it returns, and every row in it, is
// valid only until the next Decode call. Frames of every other type
// are freshly allocated. The zero value is ready to use.
type Decoder struct {
	frame Frame
	arena []int64   // every value of the current rows frame, row-major
	rows  [][]int64 // headers into arena
}

// Decode strictly decodes and shape-checks one frame line; it accepts
// and rejects exactly what DecodeFrame does.
func (d *Decoder) Decode(line []byte) (*Frame, error) {
	if d.parseRows(line) {
		d.frame = Frame{Type: FrameRows, Rows: d.rows}
		return &d.frame, nil
	}
	return decodeFrameStrict(line)
}

// parseRows is the fast path: it recognises exactly the canonical rows
// frame — rowsFramePrefix, one or more non-empty rows of canonical
// int64 literals, "]}" and nothing after — and parses it into the
// arena. Anything else (other frames, whitespace, reordered, unknown
// or repeated keys, "-0", leading zeros, fractions, exponents, integers
// outside int64, empty or null rows) reports false and is left to the
// strict decoder, so the accepted set and every error stay
// encoding/json's. The whole frame parses before any row is handed
// out: a bad value anywhere fails the frame.
func (d *Decoder) parseRows(line []byte) bool {
	n := len(line)
	if n < len(rowsFramePrefix) || string(line[:len(rowsFramePrefix)]) != rowsFramePrefix {
		return false
	}
	// Every value but the first follows a comma, so commas+1 bounds the
	// value count: sized once up front, the arena never moves under the
	// row headers while parsing.
	if most := bytes.Count(line, []byte{','}) + 1; cap(d.arena) < most {
		d.arena = make([]int64, 0, most)
	}
	arena, rows := d.arena[:0], d.rows[:0]
	i := len(rowsFramePrefix)
	for {
		if i >= n || line[i] != '[' {
			return false
		}
		i++
		start := len(arena)
		for {
			neg := i < n && line[i] == '-'
			if neg {
				i++
			}
			first := i
			var u uint64
			for i < n && line[i]-'0' <= 9 {
				u = u*10 + uint64(line[i]-'0')
				i++
			}
			// 19 digits cannot wrap a uint64; longer literals overflow
			// int64 anyway. A leading zero is canonical only as "0".
			switch digits := i - first; {
			case digits == 0 || digits > 19:
				return false
			case line[first] == '0' && (digits > 1 || neg):
				return false
			case neg && u > -math.MinInt64, !neg && u > math.MaxInt64:
				return false
			}
			if neg {
				u = -u
			}
			arena = append(arena, int64(u))
			if i < n && line[i] == ',' {
				i++
				continue
			}
			break
		}
		if i >= n || line[i] != ']' {
			return false
		}
		i++
		rows = append(rows, arena[start:len(arena):len(arena)])
		if i < n && line[i] == ',' {
			i++
			continue
		}
		break
	}
	if i+2 != n || line[i] != ']' || line[i+1] != '}' {
		return false
	}
	d.arena, d.rows = arena, rows
	return true
}
