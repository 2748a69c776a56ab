package artifact

import "time"

// realNow is the default store clock. It is the single wall-clock read
// in the package: artifact bytes and content addresses never see it —
// it only orders GC evictions — and every test injects virtual time
// through Config.Now instead.
func realNow() int64 {
	return time.Now().Unix()
}
