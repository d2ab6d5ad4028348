module nexus/bench

go 1.24

require nexus v0.0.0

replace nexus => ../
