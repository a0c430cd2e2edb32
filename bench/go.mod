module fuzzybarrier/bench

go 1.22

require fuzzybarrier v0.0.0

replace fuzzybarrier => ../
