module graphsketch/benchmark

go 1.24

require graphsketch v0.0.0

replace graphsketch => ../
