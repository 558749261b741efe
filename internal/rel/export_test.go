package rel

// ProbeLen returns how many slots Of(k) inspects before it answers.
func (c Counts) ProbeLen(k int32) int {
	if len(c.slots) == 0 {
		return 0
	}
	mask := len(c.slots) - 1
	n := 1
	for i := int(mix(k)) << 1 & mask; c.slots[i|1] != 0 && c.slots[i] != k; i = (i + 2) & mask {
		n++
	}
	return n
}
