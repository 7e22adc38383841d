let via_packed x = x
