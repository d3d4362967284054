package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// cacheSizes reads the per-core L2 and the last-level cache sizes of
// CPU 0 from sysfs (0 where the platform does not expose them).
func cacheSizes() (l2, llc int64) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	maxLevel := 0
	for _, d := range dirs {
		if typ := readTrim(filepath.Join(d, "type")); typ == "Instruction" {
			continue
		}
		level, err := strconv.Atoi(readTrim(filepath.Join(d, "level")))
		if err != nil {
			continue
		}
		size := parseSize(readTrim(filepath.Join(d, "size")))
		if level == 2 {
			l2 = size
		}
		if level >= maxLevel {
			maxLevel, llc = level, size
		}
	}
	return l2, llc
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// parseSize parses sysfs cache sizes such as "2048K" or "300M".
func parseSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}
