module totoro/bench

go 1.24

require totoro v0.0.0

replace totoro => ../
