module calloc/bench

go 1.24

require calloc v0.0.0

replace calloc => ../
