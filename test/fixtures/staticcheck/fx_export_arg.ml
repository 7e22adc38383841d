let via_argument x = x
