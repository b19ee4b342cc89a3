// Package mnist generates a deterministic synthetic stand-in for the
// MNIST handwritten-digit dataset (§4.1.2).
//
// The real dataset is not vendored; the eBNN experiments need 28×28
// one-byte-per-pixel images in ten learnable classes, and this package
// renders digits as thick seven-segment glyphs with per-image jitter
// (translation, segment waviness, speckle noise) from a seeded PRNG, so
// every run of the experiments sees the same data.
package mnist

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// Side is the image edge length in pixels; images are Side×Side bytes,
// matching MNIST's 28×28 layout.
const Side = 28

// PixelCount is the number of bytes in one image.
const PixelCount = Side * Side

// NumClasses is the number of digit classes.
const NumClasses = 10

// Image is one labeled digit.
type Image struct {
	// Pixels holds row-major grayscale values, 0 = background.
	Pixels [PixelCount]byte
	// Label is the digit 0..9.
	Label int
}

// Dataset is a train/test split.
type Dataset struct {
	Train []Image
	Test  []Image
}

// segment endpoints in a normalized 0..1 glyph box:
// A=top, B=top-right, C=bottom-right, D=bottom, E=bottom-left,
// F=top-left, G=middle.
type segment struct {
	x0, y0, x1, y1 float64
}

var segments = map[byte]segment{
	'A': {0.15, 0.08, 0.85, 0.08},
	'B': {0.85, 0.08, 0.85, 0.50},
	'C': {0.85, 0.50, 0.85, 0.92},
	'D': {0.15, 0.92, 0.85, 0.92},
	'E': {0.15, 0.50, 0.15, 0.92},
	'F': {0.15, 0.08, 0.15, 0.50},
	'G': {0.15, 0.50, 0.85, 0.50},
}

// digitSegments is the classic seven-segment encoding.
var digitSegments = [NumClasses]string{
	0: "ABCDEF",
	1: "BC",
	2: "ABGED",
	3: "ABGCD",
	4: "FGBC",
	5: "AFGCD",
	6: "AFGECD",
	7: "ABC",
	8: "ABCDEFG",
	9: "ABCDFG",
}

// Render draws one digit with the given jitter source.
func Render(digit int, rng *rand.Rand) (Image, error) {
	if digit < 0 || digit >= NumClasses {
		return Image{}, fmt.Errorf("mnist: digit %d outside 0..9", digit)
	}
	img := Image{Label: digit}

	// Per-image transform: translate up to ±2px, scale 0.85..1.05,
	// shear up to ±0.12.
	var (
		dx    = (rng.Float64() - 0.5) * 4
		dy    = (rng.Float64() - 0.5) * 4
		scale = 0.85 + rng.Float64()*0.2
		shear = (rng.Float64() - 0.5) * 0.24
		thick = 1.2 + rng.Float64()*0.8
	)

	for _, s := range digitSegments[digit] {
		seg := segments[byte(s)]
		drawSegment(&img, seg, dx, dy, scale, shear, thick, rng)
	}

	// Speckle noise: a few random low-intensity pixels.
	for i := 0; i < 12; i++ {
		p := rng.Intn(PixelCount)
		if img.Pixels[p] == 0 {
			img.Pixels[p] = byte(20 + rng.Intn(60))
		}
	}
	return img, nil
}

func drawSegment(img *Image, seg segment, dx, dy, scale, shear, thick float64, rng *rand.Rand) {
	const steps = 48
	// Waviness gives segments a hand-drawn look.
	wave := (rng.Float64() - 0.5) * 1.6
	for i := 0; i <= steps; i++ {
		t := float64(i) / steps
		x := seg.x0 + (seg.x1-seg.x0)*t
		y := seg.y0 + (seg.y1-seg.y0)*t
		// Apply shear, scale around the glyph center, then jitter.
		x += shear * (y - 0.5)
		x = 0.5 + (x-0.5)*scale
		y = 0.5 + (y-0.5)*scale
		px := x*float64(Side-6) + 3 + dx + wave*bump(t)
		py := y*float64(Side-6) + 3 + dy
		stamp(img, px, py, thick)
	}
}

// bump is a smooth 0->1->0 profile over t in [0,1], used for waviness.
func bump(t float64) float64 {
	return 4 * t * (1 - t)
}

// stamp writes a filled disc of the given radius with soft edges.
func stamp(img *Image, cx, cy, r float64) {
	lo := func(v float64) int {
		n := int(v - r - 1)
		if n < 0 {
			n = 0
		}
		return n
	}
	hi := func(v float64) int {
		n := int(v + r + 1)
		if n > Side-1 {
			n = Side - 1
		}
		return n
	}
	for y := lo(cy); y <= hi(cy); y++ {
		for x := lo(cx); x <= hi(cx); x++ {
			ddx, ddy := float64(x)-cx, float64(y)-cy
			d2 := ddx*ddx + ddy*ddy
			if d2 > r*r {
				continue
			}
			// Intensity falls off toward the stroke edge.
			v := 255 * (1 - 0.35*d2/(r*r))
			p := y*Side + x
			if byte(v) > img.Pixels[p] {
				img.Pixels[p] = byte(v)
			}
		}
	}
}

// Generate renders n digits cycling through the classes, deterministically
// for a given seed.
func Generate(n int, seed int64) []Image {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Image, n)
	for i := range out {
		img, err := Render(i%NumClasses, rng)
		if err != nil {
			// Unreachable: i%NumClasses is always in range.
			panic(err)
		}
		out[i] = img
	}
	// Shuffle so class order carries no information.
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Load builds a train/test split with disjoint jitter streams.
func Load(trainN, testN int, seed int64) Dataset {
	return Dataset{
		Train: Generate(trainN, seed),
		Test:  Generate(testN, seed+1),
	}
}

// Binarize thresholds the image at 128, returning 0/1 pixels — the input
// quantization eBNN applies (§4.1.1).
func (im *Image) Binarize() [PixelCount]byte {
	var out [PixelCount]byte
	for i, p := range im.Pixels {
		if p >= 128 {
			out[i] = 1
		}
	}
	return out
}

// PackedSize is the byte size of one bit-packed binarized image as
// transferred to the DPU: each of the 28 rows packs into a uint32 (4
// bytes), 112 bytes total, padded to 128 so a 16-image batch fills one
// 2048-byte DMA transfer exactly (§4.1.3).
const PackedSize = 128

// Pack binarizes and bit-packs the image for DPU transfer: row r occupies
// bytes [4r, 4r+4) as a little-endian uint32 whose bit c is pixel (r, c)
// thresholded as Binarize does (p >= 128 is the pixel's top bit). A row
// is read as three 8-pixel words and one 4-pixel tail.
func (im *Image) Pack() [PackedSize]byte {
	var out [PackedSize]byte
	for r := 0; r < Side; r++ {
		row := im.Pixels[r*Side : (r+1)*Side]
		w := topBits(binary.LittleEndian.Uint64(row)) |
			topBits(binary.LittleEndian.Uint64(row[8:]))<<8 |
			topBits(binary.LittleEndian.Uint64(row[16:]))<<16 |
			topBits(uint64(binary.LittleEndian.Uint32(row[24:])))<<24
		binary.LittleEndian.PutUint32(out[r*4:], w)
	}
	return out
}

// topBits gathers the top bit of byte i of x into bit i. After the mask
// and shift, byte i holds its bit at 8i; the multiplier's byte j is
// 1<<(7-j), so the product's term i+j = 7 lands at bit 56+i, and every
// other term sits at a distinct bit below 56 or above 63, so nothing
// carries into the top byte.
func topBits(x uint64) uint32 {
	return uint32((x & 0x8080808080808080 >> 7 * 0x0102040810204080) >> 56)
}

// String renders the image as ASCII art for debugging.
func (im *Image) String() string {
	shades := []byte(" .:-=+*#%@")
	buf := make([]byte, 0, (Side+1)*Side)
	for y := 0; y < Side; y++ {
		for x := 0; x < Side; x++ {
			v := int(im.Pixels[y*Side+x]) * (len(shades) - 1) / 255
			buf = append(buf, shades[v])
		}
		buf = append(buf, '\n')
	}
	return string(buf)
}
