package grammar.impl;

class Broken {
    void open() {
        if (true) {
    }
