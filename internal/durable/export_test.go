package durable

// Test-only access to the file-system seam, for the external test
// package.
type (
	FS   = fsys
	File = file
)

// OS is the real file system the seam defaults to.
var OS FS = osFS{}

// SwapFS installs f as the seam and returns a function restoring the
// previous one.
func SwapFS(f FS) (restore func()) {
	prev := disk
	disk = f
	return func() { disk = prev }
}
